package sim

import (
	"testing"

	"randfill/internal/aes"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

func TestRPcacheKindRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.L1Kind = KindRPcache
	m := New(cfg)
	res := m.RunTrace(ThreadConfig{Owner: 1}, seqTrace(500, 1, 2))
	if res.Misses == 0 || res.Instructions == 0 {
		t.Fatalf("rpcache run produced no activity: %+v", res)
	}
}

func TestNoMoKindRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.L1Kind = KindNoMo
	cfg.NoMoThreads = 2
	cfg.NoMoReserved = 1
	m := New(cfg)
	res := m.RunTrace(ThreadConfig{Owner: 0}, seqTrace(500, 1, 2))
	if res.Misses == 0 {
		t.Fatal("nomo run produced no misses")
	}
}

func TestDomainSwitchingInSMT(t *testing.T) {
	// Two threads with different owners over an RPcache: each must keep
	// finding its own lines despite interleaving (the domain is switched
	// per access).
	cfg := tinyConfig()
	cfg.L1Kind = KindRPcache
	m := New(cfg)
	mk := func(base mem.Line) mem.Trace {
		tr := make(mem.Trace, 2000)
		for i := range tr {
			tr[i] = mem.Access{Addr: mem.AddrOf(base + mem.Line(i%4)), NonMem: 2}
		}
		return tr
	}
	res := m.RunSMT(
		ThreadConfig{Owner: 0}, mk(1<<20),
		ThreadConfig{Owner: 1}, mk(2<<20),
	)
	// A 4-line working set must hit most of the time once warm (RPcache
	// deflections invalidate some of the active domain's lines on
	// cross-domain contention, so the rate is below a plain SA cache's).
	if res.HitRate() < 0.8 {
		t.Errorf("main thread hit rate %v under RPcache SMT", res.HitRate())
	}
}

func TestInformingModeTrapsAndReloads(t *testing.T) {
	cfg := tinyConfig() // 1KB L1: the 16-line region plus traffic evicts
	m := New(cfg)
	region := mem.Region{Base: 0x10000, Size: 1024}
	th := m.NewThread(ThreadConfig{
		Mode:          ModeInforming,
		SecretRegions: []mem.Region{region},
	})
	// First secret access misses → trap → whole region reloaded.
	th.Step(mem.Access{Addr: 0x10000, Secret: true})
	th.Drain()
	res := th.Result()
	if res.InformingTraps != 1 {
		t.Fatalf("traps = %d, want 1", res.InformingTraps)
	}
	for _, l := range region.Lines() {
		if !m.L1().Probe(l) {
			t.Fatalf("line %d not reloaded by the handler", l)
		}
	}
	// Subsequent accesses to the region hit without trapping.
	for _, l := range region.Lines() {
		th.Step(mem.Access{Addr: mem.AddrOf(l), Secret: true})
	}
	th.Drain()
	if got := th.Result().InformingTraps; got != 1 {
		t.Errorf("traps after warm accesses = %d, want still 1", got)
	}
	// Non-secret misses never trap.
	th.Step(mem.Access{Addr: 0x90000})
	th.Drain()
	if got := th.Result().InformingTraps; got != 1 {
		t.Errorf("non-secret access trapped")
	}
}

func TestInformingTrapCostsCycles(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg)
	region := mem.Region{Base: 0x10000, Size: 1024}
	base := m.NewThread(ThreadConfig{})
	base.Step(mem.Access{Addr: 0x10000, Secret: true})
	base.Drain()

	m2 := New(cfg)
	inf := m2.NewThread(ThreadConfig{Mode: ModeInforming, SecretRegions: []mem.Region{region}})
	inf.Step(mem.Access{Addr: 0x10000, Secret: true})
	inf.Drain()

	if inf.Cycle() <= base.Cycle()+informingTrapCycles {
		t.Errorf("informing trap cost %v cycles vs %v baseline; reload not charged",
			inf.Cycle(), base.Cycle())
	}
}

func TestL2RandomFillDecorrelates(t *testing.T) {
	cfg := tinyConfig()
	cfg.L2Window = rng.Window{A: 8, B: 7}
	m := New(cfg)
	th := m.NewThread(ThreadConfig{})
	selfFilled := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		line := mem.Line(10000 + i*64)
		th.Step(mem.Access{Addr: mem.AddrOf(line)})
		th.Drain()
		if m.Hierarchy().Level(1).Cache.Probe(line) {
			selfFilled++
		}
	}
	// With a 16-line L2 window the demanded line lands in L2 only when
	// offset 0 is drawn (~1/16).
	if frac := float64(selfFilled) / trials; frac > 0.2 {
		t.Errorf("L2 random fill: demanded line in L2 %.1f%% of the time", 100*frac)
	}
}

func TestFillQueueCapConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.FillQueueCap = 1
	m := New(cfg)
	if m.cfg.FillQueueCap != 1 {
		t.Fatal("FillQueueCap not honored")
	}
	// Default applies when zero.
	if New(tinyConfig()).cfg.FillQueueCap != 64 {
		t.Fatal("FillQueueCap default wrong")
	}
}

func TestWritebackTraffic(t *testing.T) {
	cfg := tinyConfig() // 16-line L1
	m := New(cfg)
	th := m.NewThread(ThreadConfig{})
	// Dirty a line, then stream conflicting lines to force its eviction.
	th.Step(mem.Access{Addr: 0, Kind: mem.Write})
	th.Drain()
	for i := 1; i < 40; i++ {
		th.Step(mem.Access{Addr: mem.AddrOf(mem.Line(i * 8))}) // same set as line 0
		th.Drain()
	}
	if m.Hierarchy().Level(1).Stats().WritebacksIn == 0 {
		t.Error("dirty eviction produced no write-back")
	}
}

func TestResultSubSteadyState(t *testing.T) {
	m := New(tinyConfig())
	trace := seqTrace(2000, 1, 2)
	res := m.RunTraceSteady(ThreadConfig{}, trace)
	if res.Instructions != trace.Instructions() {
		t.Errorf("steady pass instructions %d, want %d", res.Instructions, trace.Instructions())
	}
	if res.Cycles <= 0 {
		t.Error("steady pass measured no cycles")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		cfg := DefaultConfig()
		cfg.Seed = 77
		m := New(cfg)
		return m.RunTrace(ThreadConfig{
			Mode: ModeRandomFill, Window: rng.Window{A: 4, B: 3},
		}, seqTrace(5000, 2, 3))
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
}

func TestIPCNeverExceedsIssueWidth(t *testing.T) {
	// Property: no workload can exceed the issue width.
	for _, g := range []struct {
		name  string
		trace mem.Trace
	}{
		{"hits", func() mem.Trace {
			tr := make(mem.Trace, 3000)
			for i := range tr {
				tr[i] = mem.Access{Addr: 0, NonMem: 10}
			}
			return tr
		}()},
		{"stream", seqTrace(3000, 1, 1)},
	} {
		res := New(DefaultConfig()).RunTrace(ThreadConfig{}, g.trace)
		if res.IPC() > 4.0001 {
			t.Errorf("%s: IPC %v exceeds issue width", g.name, res.IPC())
		}
	}
}

func TestAESTraceTimingSanity(t *testing.T) {
	// One AES block on the default machine lands in a plausible cycle
	// range and is dominated by table misses when cold.
	src := rng.New(3)
	var key [16]byte
	src.Bytes(key[:])
	c, _ := aes.New(key[:])
	tr := &aes.Tracer{Cipher: c, Layout: aes.DefaultLayout()}
	_, trace := tr.EncryptBlock(make([]byte, 16), 0)
	res := New(DefaultConfig()).RunTrace(ThreadConfig{}, trace)
	if res.Cycles < 500 || res.Cycles > 50000 {
		t.Errorf("cold AES block took %v cycles", res.Cycles)
	}
	if res.Misses == 0 {
		t.Error("cold AES block had no misses")
	}
}

func TestGeometryKindMatrixRuns(t *testing.T) {
	// Every cache kind runs a mixed trace without panicking and with
	// conserved accesses.
	trace := seqTrace(1000, 3, 2)
	for _, kind := range []CacheKind{KindSA, KindNewcache, KindPLcache, KindRPcache, KindNoMo} {
		cfg := DefaultConfig()
		cfg.L1 = cache.Geometry{SizeBytes: 8 * 1024, Ways: 2}
		cfg.L1Kind = kind
		res := New(cfg).RunTrace(ThreadConfig{Owner: 1}, trace)
		if res.Hits+res.Misses+res.Merged != uint64(len(trace)) {
			t.Errorf("%s: access conservation broken: %+v", kind, res)
		}
	}
}
