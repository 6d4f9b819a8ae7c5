package sim

import (
	"fmt"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// This file pins the hierarchy refactor to the pre-refactor machine,
// bit for bit. The expected strings below were captured by running the
// two-level machine as it existed BEFORE internal/hierarchy replaced
// accessL2/fillL1/l2gen, on the recorded trace of recordedTrace(). The
// refactored machine must reproduce every counter and the fractional cycle
// count exactly — same RNG draws in the same order, same probes, same
// memory traffic. If this test fails, the uniform miss path no longer
// matches the historical L2 semantics and every golden is suspect.

// recordedTrace is a mixed read/write trace with set conflicts, dependent
// loads, and a hot secondary region — enough to exercise MSHR merging, the
// fill queue, write-backs, and both fill engines.
func recordedTrace() mem.Trace {
	src := rng.New(42)
	tr := make(mem.Trace, 4000)
	for i := range tr {
		line := mem.Line(src.Intn(512))
		if src.Bool(0.2) {
			line = mem.Line(4096 + src.Intn(64))
		}
		a := mem.Access{Addr: mem.AddrOf(line), NonMem: uint32(src.Intn(4))}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		if src.Bool(0.15) {
			a.Dependent = true
		}
		tr[i] = a
	}
	return tr
}

func compatSummary(cfg Config, tc ThreadConfig) string {
	m := New(cfg)
	res := m.RunTrace(tc, recordedTrace())
	return fmt.Sprintf("cycles=%.2f instr=%d hits=%d misses=%d merged=%d rf=%d stall=%.2f l2=%d mem=%d wb=%d",
		res.Cycles, res.Instructions, res.Hits, res.Misses, res.Merged,
		res.RandomFills, res.StallCycles, m.L2Accesses(), m.MemAccesses(), m.Hierarchy().Level(1).Stats().WritebacksIn)
}

func TestHierarchyMatchesPreRefactorMachine(t *testing.T) {
	tiny := DefaultConfig()
	tiny.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	tiny.L2 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}
	tiny.Seed = 7
	l2rf := tiny
	l2rf.L2Window = rng.Window{A: 4, B: 3}

	cases := []struct {
		name string
		cfg  Config
		tc   ThreadConfig
		want string
	}{
		{"demand", tiny, ThreadConfig{},
			"cycles=130807.50 instr=9971 hits=147 misses=3831 merged=22 rf=0 stall=128134.75 l2=3831 mem=2204 wb=1178"},
		{"randomfill", tiny, ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}},
			"cycles=224904.25 instr=9971 hits=119 misses=3861 merged=20 rf=3575 stall=222051.50 l2=7436 mem=4228 wb=32"},
		{"l2window", l2rf, ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}},
			"cycles=219197.50 instr=9971 hits=109 misses=3866 merged=25 rf=3560 stall=216524.75 l2=7426 mem=6644 wb=30"},
		{"default-demand", Config{Seed: 1}, ThreadConfig{},
			"cycles=33202.00 instr=9971 hits=3154 misses=830 merged=16 rf=0 stall=30689.25 l2=830 mem=575 wb=184"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := compatSummary(c.cfg, c.tc); got != c.want {
				t.Errorf("drifted from pre-refactor machine:\n got  %s\n want %s", got, c.want)
			}
		})
	}
}

// TestExplicitLevelsMatchClassicL2 pins the Levels-based configuration to
// the classic L2 fields: a one-entry Levels stack is the same machine.
func TestExplicitLevelsMatchClassicL2(t *testing.T) {
	classic := DefaultConfig()
	classic.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	classic.L2 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}
	classic.L2Window = rng.Window{A: 4, B: 3}
	classic.Seed = 7

	explicit := classic
	explicit.Levels = []LevelConfig{{
		Geom:   classic.L2,
		HitLat: classic.L2HitLat,
		Window: classic.L2Window,
	}}

	tc := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}
	if a, b := compatSummary(classic, tc), compatSummary(explicit, tc); a != b {
		t.Errorf("explicit Levels diverges from classic L2 config:\n classic  %s\n explicit %s", a, b)
	}
}

// TestL2RandomFillDropStats is the accounting fix: the old accessL2
// silently skipped out-of-range and already-present L2 random fills; the
// engine-backed level surfaces them. Every L2 demand miss must be accounted
// for as exactly one of issued / dropped / clamped, and the nofill count
// must equal the miss count.
func TestL2RandomFillDropStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	cfg.L2 = cache.Geometry{SizeBytes: 4 * 1024, Ways: 4}
	// A window reaching far below the trace's low lines forces clamps.
	cfg.L2Window = rng.Window{A: 600, B: 0}
	cfg.Seed = 7
	m := New(cfg)
	m.RunTrace(ThreadConfig{}, recordedTrace())

	fs := m.Hierarchy().Level(1).FillStats()
	if fs == nil {
		t.Fatal("L2 FillStats nil with L2Window set")
	}
	l2 := m.Hierarchy().Level(1).Stats()
	if fs.NoFills != l2.Misses {
		t.Errorf("nofills = %d, want one per L2 miss (%d)", fs.NoFills, l2.Misses)
	}
	if got := fs.RandomIssued + fs.RandomDropped + fs.RandomClamped; got != l2.Misses {
		t.Errorf("issued+dropped+clamped = %d, want %d (every skip must be counted)", got, l2.Misses)
	}
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"issued", fs.RandomIssued},
		{"dropped", fs.RandomDropped},
		{"clamped", fs.RandomClamped},
	} {
		if c.v == 0 {
			t.Errorf("expected nonzero %s count, got 0 (window [-600,0] over a low-address trace)", c.name)
		}
	}
	// Issued random fills are the only way lines enter the L2, and each
	// fetched its data from below: memory fetches = L2 misses + issued.
	if m.MemAccesses() != l2.Misses+fs.RandomIssued {
		t.Errorf("mem accesses = %d, want %d misses + %d random fills",
			m.MemAccesses(), l2.Misses, fs.RandomIssued)
	}

	// A demand-fill machine surfaces no fill stats.
	if New(Config{Seed: 1}).Hierarchy().Level(1).FillStats() != nil {
		t.Error("L2 FillStats non-nil without L2Window")
	}
}

// TestThreeLevelMachine runs the machine on a hierarchy the old code could
// not express: L1/L2/L3 with random fill in the middle level only.
func TestThreeLevelMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	cfg.Seed = 7
	cfg.Levels = []LevelConfig{
		{Geom: cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}, HitLat: 12, Window: rng.Window{A: 4, B: 3}},
		{Geom: cache.Geometry{SizeBytes: 64 * 1024, Ways: 8}, HitLat: 40},
	}
	m := New(cfg)
	if m.Hierarchy().Depth() != 3 {
		t.Fatalf("depth = %d", m.Hierarchy().Depth())
	}
	res := m.RunTrace(ThreadConfig{}, recordedTrace())
	if res.Instructions == 0 || res.Misses == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	l2, l3 := m.Hierarchy().Level(1).Stats(), m.Hierarchy().Level(2).Stats()
	if l2.Accesses == 0 || l3.Accesses == 0 {
		t.Fatal("no traffic below L1")
	}
	// The L2 runs nofill: every L2 miss consults the L3, plus each issued
	// random fill fetches through the L3 in the background.
	fs := m.Hierarchy().Level(1).FillStats()
	if fs == nil || fs.NoFills != l2.Misses {
		t.Fatalf("L2 fill stats = %+v for %d misses", fs, l2.Misses)
	}
	if l3.Accesses != l2.Misses+fs.RandomIssued {
		t.Errorf("L3 accesses = %d, want %d + %d", l3.Accesses, l2.Misses, fs.RandomIssued)
	}
	// Dirty L1 victims write back into the L2, and its own dirty victims
	// cascade to the L3 (the trace's write share guarantees some).
	if l2.WritebacksIn == 0 || l3.WritebacksIn == 0 {
		t.Errorf("write-backs did not cascade: L2in=%d L3in=%d", l2.WritebacksIn, l3.WritebacksIn)
	}
	// Determinism across reconstruction.
	m2 := New(cfg)
	res2 := m2.RunTrace(ThreadConfig{}, recordedTrace())
	if res != res2 {
		t.Errorf("3-level machine not deterministic:\n%+v\n%+v", res, res2)
	}
}
