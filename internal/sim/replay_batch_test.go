package sim

import (
	"fmt"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// This file pins batched replay to per-access replay, byte for byte: for
// every fill mode and machine shape, ReplayBatch over a compiled trace must
// leave a machine in exactly the state a Step loop over the raw trace does —
// same fractional cycles, same counters at every layer, same RNG consumption
// (witnessed by the random-fill line choices feeding the L2/memory traffic
// counts). Together with the RunTrace goldens (which now run batched), this
// is the identity gate of the batch replay core (DESIGN.md §12).

// replayPinTrace is recordedTrace plus secret accesses confined to a small
// region, so the secret-sensitive modes (disable-secret bypass, informing
// loads) take their special paths during the pin.
func replayPinTrace() (mem.Trace, mem.Region) {
	reg := mem.Region{Base: 1 << 20, Size: 8 * 64}
	src := rng.New(43)
	tr := make(mem.Trace, 4000)
	for i := range tr {
		a := mem.Access{
			Addr:   mem.AddrOf(mem.Line(src.Intn(512))),
			NonMem: uint32(src.Intn(4)),
		}
		if src.Bool(0.1) {
			a.Addr = reg.Base + mem.Addr(src.Intn(int(reg.Size)))
			a.Secret = true
		}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		if src.Bool(0.15) {
			a.Dependent = true
		}
		tr[i] = a
	}
	return tr, reg
}

// machineState summarizes every observable layer of a machine after a replay:
// the thread result, the L1 cache counters, and the per-level and memory
// traffic below it.
func machineState(m *Machine, res Result) string {
	s := fmt.Sprintf("%+v l1=%+v", res, *m.L1().Stats())
	for k := 1; k < m.Hierarchy().Depth(); k++ {
		s += fmt.Sprintf(" lvl%d=%+v", k, *m.Hierarchy().Level(k).Stats())
	}
	return s + fmt.Sprintf(" mem=%d memwb=%d", m.MemAccesses(), m.Hierarchy().MemWritebacks())
}

func TestBatchReplayMatchesStep(t *testing.T) {
	tr, reg := replayPinTrace()

	tiny := DefaultConfig()
	tiny.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	tiny.L2 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}
	tiny.Seed = 7
	oneMSHR := tiny
	oneMSHR.MissQueue = 1
	l2rf := tiny
	l2rf.L2Window = rng.Window{A: 4, B: 3}
	three := tiny
	three.Levels = []LevelConfig{
		{Geom: cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}, HitLat: 12, Window: rng.Window{A: 8, B: 7}},
		{Geom: cache.Geometry{SizeBytes: 64 * 1024, Ways: 8}, HitLat: 40},
	}
	plKind := tiny
	plKind.L1Kind = KindPLcache
	rpKind := tiny
	rpKind.L1Kind = KindRPcache
	withPolicy := func(name string) Config {
		c := tiny
		c.L1Policy = name
		return c
	}

	rf := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}

	cases := []struct {
		name     string
		cfg      Config
		tc       ThreadConfig
		prefetch bool
	}{
		{name: "demand", cfg: tiny, tc: ThreadConfig{}},
		{name: "randomfill", cfg: tiny, tc: rf},
		{name: "one-mshr", cfg: oneMSHR, tc: rf},
		{name: "l2window", cfg: l2rf, tc: rf},
		{name: "three-level", cfg: three, tc: rf},
		{name: "disable-secret", cfg: tiny, tc: ThreadConfig{Mode: ModeDisableSecret}},
		{name: "informing", cfg: tiny, tc: ThreadConfig{Mode: ModeInforming, SecretRegions: []mem.Region{reg}}},
		// Scalar-fallback shapes: a non-SetAssoc L1, a domain-aware L1,
		// and an attached prefetcher must also replay identically
		// (through Step).
		{name: "plcache-fallback", cfg: plKind, tc: ThreadConfig{Mode: ModePreload, SecretRegions: []mem.Region{reg}}},
		{name: "rpcache-fallback", cfg: rpKind, tc: rf},
		{name: "prefetch-fallback", cfg: tiny, tc: ThreadConfig{}, prefetch: true},
		// Per-policy state-diff pins: the devirtualized SetAssoc batch path
		// goes through TryHit/Lookup/Fill only, so every stateful policy
		// (tree bits, RRIP counters, BRRIP draws) must land in exactly the
		// per-set state the Step loop produces — under random fill too, so
		// the policy sees out-of-window fills the same way in both paths.
		{name: "policy-plru", cfg: withPolicy("plru"), tc: rf},
		{name: "policy-srrip", cfg: withPolicy("srrip"), tc: rf},
		{name: "policy-brrip", cfg: withPolicy("brrip"), tc: rf},
		{name: "policy-fifo", cfg: withPolicy("fifo"), tc: ThreadConfig{}},
		{name: "policy-random", cfg: withPolicy("random"), tc: ThreadConfig{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scalar := New(c.cfg)
			batch := New(c.cfg)
			if c.prefetch {
				scalar.Prefetcher = prefetch.NewTagged()
				batch.Prefetcher = prefetch.NewTagged()
			}

			st := scalar.NewThread(c.tc)
			for i := range tr {
				st.Step(tr[i])
			}
			st.Drain()

			bt := batch.NewThread(c.tc)
			bt.ReplayBatch(trace.Compile(tr))
			bt.Drain()

			got := machineState(batch, bt.Result())
			want := machineState(scalar, st.Result())
			if got != want {
				t.Errorf("batched replay diverges from Step loop:\n batch  %s\n scalar %s", got, want)
			}
		})
	}
}

// TestBatchReplayEscapeRecords drives ReplayBatch over a trace whose records
// overflow the packed word layout (line number beyond 49 bits, non-memory
// count beyond 12 bits): escapes must take the scalar path verbatim and
// still match the Step loop.
func TestBatchReplayEscapeRecords(t *testing.T) {
	src := rng.New(5)
	tr := make(mem.Trace, 200)
	for i := range tr {
		a := mem.Access{Addr: mem.AddrOf(mem.Line(src.Intn(64)))}
		switch src.Intn(4) {
		case 0:
			a.Addr = mem.Addr(src.Uint64() | 1<<60)
		case 1:
			a.NonMem = 1 << 20
		}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		tr[i] = a
	}

	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	cfg.Seed = 3
	tc := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}

	scalar := New(cfg)
	st := scalar.NewThread(tc)
	for i := range tr {
		st.Step(tr[i])
	}
	st.Drain()

	batch := New(cfg)
	bt := batch.NewThread(tc)
	bt.ReplayBatch(trace.Compile(tr))
	bt.Drain()

	got, want := machineState(batch, bt.Result()), machineState(scalar, st.Result())
	if got != want {
		t.Errorf("escape-record replay diverges:\n batch  %s\n scalar %s", got, want)
	}
}

// TestRunCompiledMatchesRun pins RunCompiled to a whole run stepped one
// access at a time: Step every access, Drain, then read the Result.
func TestRunCompiledMatchesRun(t *testing.T) {
	tr, _ := replayPinTrace()
	cfg := DefaultConfig()
	cfg.Seed = 9
	tc := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}

	th := New(cfg).NewThread(tc)
	for _, a := range tr {
		th.Step(a)
	}
	th.Drain()
	a := th.Result()
	b := New(cfg).NewThread(tc).RunCompiled(trace.Compile(tr))
	if ga, gb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); ga != gb {
		t.Errorf("RunCompiled diverges from stepping:\n compiled %s\n scalar   %s", gb, ga)
	}
}
