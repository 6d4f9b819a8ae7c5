package sim

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
	cfg.L2 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}
	return cfg
}

// seqTrace builds n reads at the given line stride (in lines), NonMem
// instructions before each.
func seqTrace(n int, strideLines int, nonMem uint32) mem.Trace {
	tr := make(mem.Trace, n)
	for i := range tr {
		tr[i] = mem.Access{
			Addr:   mem.AddrOf(mem.Line(i * strideLines)),
			NonMem: nonMem,
		}
	}
	return tr
}

func TestAllHitsTiming(t *testing.T) {
	m := New(tinyConfig())
	th := m.NewThread(ThreadConfig{})
	// Warm the line and let the fill land.
	th.Step(mem.Access{Addr: 0, NonMem: 3})
	th.Drain()
	warm := th.Cycle()
	for i := 0; i < 99; i++ {
		th.Step(mem.Access{Addr: 0, NonMem: 3})
	}
	th.Drain()
	res := th.Result()
	if res.Hits != 99 || res.Misses != 1 {
		t.Fatalf("hits %d misses %d", res.Hits, res.Misses)
	}
	if res.Instructions != 400 {
		t.Fatalf("instructions %d", res.Instructions)
	}
	// 99 hit accesses x 4 instructions at width 4 = 99 cycles.
	elapsed := res.Cycles - warm
	if elapsed < 99 || elapsed > 105 {
		t.Errorf("hit phase took %v cycles, want ≈ 99", elapsed)
	}
	if res.IPC() <= 0 || res.IPC() > 4 {
		t.Errorf("IPC = %v", res.IPC())
	}
}

func TestRepeatedColdAccessesMerge(t *testing.T) {
	// Back-to-back accesses to one cold line while its miss is
	// outstanding merge instead of hitting or re-missing.
	m := New(tinyConfig())
	tr := make(mem.Trace, 10)
	for i := range tr {
		tr[i] = mem.Access{Addr: 0, NonMem: 0}
	}
	res := m.RunTrace(ThreadConfig{}, tr)
	if res.Misses != 1 || res.Merged != 9 {
		t.Fatalf("misses %d merged %d, want 1/9", res.Misses, res.Merged)
	}
}

func TestMissLatencyExposedByDependence(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg)
	// Two accesses: a cold miss, then a dependent access to another cold
	// line. The second must wait for the first's completion.
	tr := mem.Trace{
		{Addr: 0, NonMem: 0},
		{Addr: mem.AddrOf(100), NonMem: 0, Dependent: true},
	}
	res := m.RunTrace(ThreadConfig{}, tr)
	missLat := float64(cfg.L2HitLat + cfg.MemLat)
	if res.Cycles < 2*missLat {
		t.Errorf("cycles %v < two serialized miss latencies %v", res.Cycles, 2*missLat)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	cfg := tinyConfig()
	// 4 independent cold misses with 4 MSHRs: total time ≈ one miss
	// latency, not four.
	m := New(cfg)
	tr := mem.Trace{
		{Addr: mem.AddrOf(10)},
		{Addr: mem.AddrOf(20)},
		{Addr: mem.AddrOf(30)},
		{Addr: mem.AddrOf(40)},
	}
	res := m.RunTrace(ThreadConfig{}, tr)
	missLat := float64(cfg.L2HitLat + cfg.MemLat)
	if res.Cycles > missLat+10 {
		t.Errorf("4 independent misses took %v cycles; no overlap (miss lat %v)", res.Cycles, missLat)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	cfg := tinyConfig()
	cfg.MissQueue = 1
	m := New(cfg)
	tr := mem.Trace{
		{Addr: mem.AddrOf(10)},
		{Addr: mem.AddrOf(20)},
		{Addr: mem.AddrOf(30)},
		{Addr: mem.AddrOf(40)},
	}
	res := m.RunTrace(ThreadConfig{}, tr)
	missLat := float64(cfg.L2HitLat + cfg.MemLat)
	// With one MSHR, the 2nd..4th misses each wait for the previous.
	if res.Cycles < 3*missLat {
		t.Errorf("1-MSHR run took %v cycles, want ≥ %v", res.Cycles, 3*missLat)
	}
	if res.StallCycles == 0 {
		t.Error("no stall cycles recorded")
	}
}

func TestMergingMissesSameLine(t *testing.T) {
	m := New(tinyConfig())
	// Burst of accesses to the same cold line: one true miss, the rest
	// merge while it is outstanding.
	tr := mem.Trace{
		{Addr: 0}, {Addr: 8}, {Addr: 16}, {Addr: 24},
	}
	res := m.RunTrace(ThreadConfig{}, tr)
	if res.Misses != 1 {
		t.Errorf("misses = %d, want 1", res.Misses)
	}
	if res.Merged != 3 {
		t.Errorf("merged = %d, want 3", res.Merged)
	}
}

func TestL2HitFasterThanMem(t *testing.T) {
	cfg := tinyConfig()
	// Warm the L2 by touching a line once (L1 evicts it later), then
	// measure that a re-miss is served at L2 latency.
	m := New(cfg)
	tr := mem.Trace{{Addr: 0, Dependent: true}}
	m.RunTrace(ThreadConfig{}, tr)
	if m.L2Accesses() != 1 || m.MemAccesses() != 1 {
		t.Fatalf("L2 %d mem %d", m.L2Accesses(), m.MemAccesses())
	}
	// Evict line 0 from tiny L1 by filling its set, then re-access.
	t2 := m.NewThread(ThreadConfig{})
	for i := 1; i <= 4; i++ {
		t2.Step(mem.Access{Addr: mem.AddrOf(mem.Line(i * 8))})
	}
	t2.Drain()
	start := t2.Cycle()
	t2.Step(mem.Access{Addr: 0, Dependent: true})
	t2.Drain()
	elapsed := t2.Cycle() - start
	if elapsed > float64(cfg.L2HitLat)+5 {
		t.Errorf("L2 hit took %v cycles, want ≈ %d", elapsed, cfg.L2HitLat)
	}
	if m.MemAccesses() != 1+4 {
		t.Errorf("mem accesses = %d (L2 should have served the re-miss)", m.MemAccesses())
	}
}

func TestRandomFillModeNeverDemandFills(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg)
	tcfg := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 16, B: 15}}
	th := m.NewThread(tcfg)
	selfFilled := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		line := mem.Line(1000 + i*64)
		th.Step(mem.Access{Addr: mem.AddrOf(line)})
		th.Drain()
		if m.L1().Probe(line) {
			selfFilled++
		}
	}
	if frac := float64(selfFilled) / trials; frac > 0.10 {
		t.Errorf("demanded line present %.1f%% of the time under random fill", 100*frac)
	}
	res := th.Result()
	if res.RandomFills == 0 {
		t.Error("no random fills landed")
	}
}

func TestRandomFillLandsInL2Too(t *testing.T) {
	// Section VII: the nofill demand request and the random fill request
	// both fill the L2 on their way.
	cfg := tinyConfig()
	m := New(cfg)
	th := m.NewThread(ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 0, B: 7}})
	th.Step(mem.Access{Addr: mem.AddrOf(512)})
	th.Drain()
	if !m.Hierarchy().Level(1).Cache.Probe(512) {
		t.Error("demand line missing from L2 after nofill forward")
	}
	if m.L2Accesses() < 2 {
		t.Errorf("L2 accesses = %d, want demand + random fill", m.L2Accesses())
	}
}

func TestDisableSecretBypassesL1(t *testing.T) {
	m := New(tinyConfig())
	th := m.NewThread(ThreadConfig{Mode: ModeDisableSecret})
	a := mem.Access{Addr: mem.AddrOf(77), Secret: true}
	for i := 0; i < 10; i++ {
		th.Step(a)
		th.Drain()
	}
	res := th.Result()
	if res.SecretBypass != 10 {
		t.Errorf("SecretBypass = %d", res.SecretBypass)
	}
	if m.L1().Probe(77) {
		t.Error("secret line cached despite disable-cache mode")
	}
	if res.Hits != 0 {
		t.Errorf("hits = %d, secret accesses must never hit", res.Hits)
	}
	// Non-secret accesses still use the cache normally.
	th.Step(mem.Access{Addr: 0})
	th.Drain()
	if !m.L1().Probe(0) {
		t.Error("non-secret access did not fill L1")
	}
}

func TestPreloadModeLocksRegions(t *testing.T) {
	cfg := tinyConfig()
	cfg.L1Kind = KindPLcache
	m := New(cfg)
	region := mem.Region{Base: 0, Size: 512} // 8 lines into a 16-line cache
	th := m.NewThread(ThreadConfig{Mode: ModePreload, SecretRegions: []mem.Region{region}, Owner: 1})
	for _, l := range region.Lines() {
		if !m.L1().Probe(l) {
			t.Fatalf("preloaded line %d missing", l)
		}
	}
	if th.Cycle() == 0 {
		t.Error("preload cost no cycles")
	}
	// Accesses to the locked region always hit.
	for _, l := range region.Lines() {
		th.Step(mem.Access{Addr: mem.AddrOf(l), Secret: true})
	}
	th.Drain()
	if res := th.Result(); res.Misses != 0 {
		t.Errorf("locked-region accesses missed %d times", res.Misses)
	}
}

func TestPreloadRequiresPLcache(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ModePreload on SA cache did not panic")
		}
	}()
	New(tinyConfig()).NewThread(ThreadConfig{Mode: ModePreload})
}

func TestSMTSharedCacheInterference(t *testing.T) {
	cfg := tinyConfig()
	// Main thread has a working set that fits L1; a streaming background
	// thread thrashes the shared cache, lowering main's throughput
	// versus running alone.
	// Disjoint address spaces: main at lines 1M+, background streaming
	// from line 0 — interference is purely via shared-cache eviction.
	mkMain := func() mem.Trace {
		tr := make(mem.Trace, 3000)
		for i := range tr {
			tr[i] = mem.Access{Addr: mem.AddrOf(mem.Line(1<<20 + i%16)), NonMem: 2}
		}
		return tr
	}
	alone := New(cfg).RunTrace(ThreadConfig{}, mkMain())
	shared := New(cfg).RunSMT(
		ThreadConfig{}, mkMain(),
		ThreadConfig{Owner: 1}, seqTrace(4096, 1, 2),
	)
	if shared.IPC() >= alone.IPC() {
		t.Errorf("SMT co-run IPC %.3f not below solo IPC %.3f", shared.IPC(), alone.IPC())
	}
}

func TestTaggedPrefetcherHelpsStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 8 * 1024, Ways: 2}
	// Pure forward stream, 4 accesses per line, large footprint.
	mk := func() mem.Trace {
		tr := make(mem.Trace, 16000)
		for i := range tr {
			tr[i] = mem.Access{Addr: mem.Addr(i * 16), NonMem: 2}
		}
		return tr
	}
	base := New(cfg).RunTrace(ThreadConfig{}, mk())
	mPf := New(cfg)
	mPf.Prefetcher = prefetch.NewTagged()
	pf := mPf.RunTrace(ThreadConfig{}, mk())
	if pf.IPC() <= base.IPC() {
		t.Errorf("tagged prefetcher IPC %.3f not above baseline %.3f", pf.IPC(), base.IPC())
	}
	if pf.Prefetches == 0 {
		t.Error("no prefetches issued")
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{Cycles: 100, Instructions: 250, Hits: 30, Misses: 10, Merged: 10}
	if r.IPC() != 2.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.MPKI() != 40 {
		t.Errorf("MPKI = %v", r.MPKI())
	}
	if r.HitRate() != 0.6 {
		t.Errorf("HitRate = %v", r.HitRate())
	}
	var zero Result
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.HitRate() != 0 {
		t.Error("zero Result derived metrics must be 0")
	}
}

func TestFillModeStrings(t *testing.T) {
	want := []struct {
		mode FillMode
		str  string
	}{
		{ModeDemand, "demand"},
		{ModeRandomFill, "randomfill"},
		{ModeDisableSecret, "disable-cache"},
		{ModePreload, "plcache+preload"},
	}
	for _, tc := range want {
		if tc.mode.String() != tc.str {
			t.Errorf("%d.String() = %q, want %q", int(tc.mode), tc.mode.String(), tc.str)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := New(Config{}).cfg
	if cfg.L1.SizeBytes != 32*1024 || cfg.L1.Ways != 4 {
		t.Errorf("default L1 %v", cfg.L1)
	}
	if cfg.L2.SizeBytes != 2*1024*1024 || cfg.L2.Ways != 8 {
		t.Errorf("default L2 %v", cfg.L2)
	}
	if cfg.MissQueue != 4 || cfg.IssueWidth != 4 {
		t.Errorf("defaults %+v", cfg)
	}
}

func TestNewcacheL1Kind(t *testing.T) {
	cfg := tinyConfig()
	cfg.L1Kind = KindNewcache
	m := New(cfg)
	tr := seqTrace(100, 1, 1)
	res := m.RunTrace(ThreadConfig{}, tr)
	if res.Misses == 0 {
		t.Error("no misses on cold Newcache")
	}
	if res.Instructions != 200 {
		t.Errorf("instructions %d", res.Instructions)
	}
}
