package hierarchy

import (
	"strings"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// oneLine returns a 1-line direct-mapped cache: every fill of a new line
// evicts the previous one, which makes victim flows exact.
func oneLine() cache.Cache {
	return cache.NewSetAssoc(cache.Geometry{SizeBytes: 64, Ways: 1}, cache.LRU{})
}

func small(lines int) cache.Cache {
	return cache.NewSetAssoc(cache.Geometry{SizeBytes: 64 * lines, Ways: lines}, cache.LRU{})
}

func threeLevel() *Hierarchy {
	return New(100,
		NewLevel(oneLine(), 1),
		NewLevel(oneLine(), 10),
		NewLevel(oneLine(), 30),
	)
}

func TestFetchLatencyAndDemandFill(t *testing.T) {
	h := New(100, NewLevel(small(4), 1), NewLevel(small(8), 10), NewLevel(small(16), 30))
	if got := h.Fetch(1, 7, false); got != 10+30+100 {
		t.Fatalf("cold fetch latency = %d, want 140", got)
	}
	if h.MemAccesses() != 1 {
		t.Fatalf("mem accesses = %d, want 1", h.MemAccesses())
	}
	// Demand-fill levels install the line on the unwind.
	if !h.Level(1).Cache.Probe(7) || !h.Level(2).Cache.Probe(7) {
		t.Fatal("demand line not installed in L2/L3")
	}
	if got := h.Fetch(1, 7, false); got != 10 {
		t.Fatalf("warm fetch latency = %d, want 10 (L2 hit)", got)
	}
	s := h.Level(1).Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("L2 stats = %+v", *s)
	}
	if h.MemAccesses() != 1 {
		t.Fatalf("warm hit went to memory: %d", h.MemAccesses())
	}
}

// TestWritebackCascadesThreeLevels drives a dirty victim down all three
// levels and finally to memory, covering both the write-back-miss
// (allocate) and write-back-hit (update in place) cases.
func TestWritebackCascadesThreeLevels(t *testing.T) {
	h := threeLevel()

	// A dirty in L1; displacing it must allocate in the (empty) L2.
	h.Fill(0, 1, cache.FillOpts{Dirty: true})
	h.Fill(0, 2, cache.FillOpts{})
	l2 := h.Level(1).Stats()
	if l2.WritebacksIn != 1 || l2.WritebackAllocs != 1 {
		t.Fatalf("L2 wb stats after first victim = %+v", *l2)
	}
	if !h.Level(1).Cache.Probe(1) {
		t.Fatal("dirty victim 1 not allocated in L2")
	}

	// Clean victims vanish: displacing clean line 2 writes nothing back.
	h.Fill(0, 3, cache.FillOpts{Dirty: true})
	if l2.WritebacksIn != 1 {
		t.Fatalf("clean victim was written back: %+v", *l2)
	}

	// Dirty line 3's victim cascades: L2 write-back-miss allocates line 3,
	// displacing dirty line 1 into L3 (which also misses and allocates).
	h.Fill(0, 4, cache.FillOpts{})
	l3 := h.Level(2).Stats()
	if l2.WritebacksIn != 2 || l2.WritebackAllocs != 2 {
		t.Fatalf("L2 wb stats after cascade = %+v", *l2)
	}
	if l3.WritebacksIn != 1 || l3.WritebackAllocs != 1 {
		t.Fatalf("L3 wb stats after cascade = %+v", *l3)
	}
	if !h.Level(2).Cache.Probe(1) {
		t.Fatal("cascaded victim 1 not in L3")
	}
	if h.MemWritebacks() != 0 {
		t.Fatalf("premature memory write-back: %d", h.MemWritebacks())
	}

	// One more dirty round-trip pushes the chain's tail out of L3 into
	// memory: 5 displaces dirty 4? No — 4 was filled clean; make it dirty
	// via a write lookup first, then displace.
	h.Level(0).Cache.Lookup(4, true)
	h.Fill(0, 5, cache.FillOpts{})
	// L2 write-back-miss on 4 displaces dirty 3 into L3; L3 write-back-miss
	// on 3 displaces dirty 1 to memory.
	if h.MemWritebacks() != 1 {
		t.Fatalf("mem write-backs = %d, want 1", h.MemWritebacks())
	}
}

// TestWritebackHitUpdatesInPlace checks the victim-present-in-next-level
// case: the write-back hits and must not allocate or displace anything.
func TestWritebackHitUpdatesInPlace(t *testing.T) {
	h := threeLevel()
	// Line 1 already lives in the L2.
	h.Fill(1, 1, cache.FillOpts{})
	h.Fill(0, 1, cache.FillOpts{Dirty: true})
	h.Fill(0, 2, cache.FillOpts{})
	l2 := h.Level(1).Stats()
	if l2.WritebacksIn != 1 || l2.WritebackAllocs != 0 {
		t.Fatalf("write-back hit allocated: %+v", *l2)
	}
	if h.Level(2).Stats().WritebacksIn != 0 {
		t.Fatal("write-back hit cascaded past the hitting level")
	}
}

func TestRandomFillLevelNofillAndStats(t *testing.T) {
	l2c := small(8)
	eng := core.NewEngine(l2c, rng.New(7))
	eng.SetRR(0, 3)
	h := New(100,
		NewLevel(small(4), 1),
		NewLevel(l2c, 10).WithEngine(eng),
		NewLevel(small(16), 30),
	)
	const n = 32
	for i := 0; i < n; i++ {
		lat := h.Fetch(1, mem.Line(i*64), false)
		if lat != 10+30+100 {
			t.Fatalf("fetch %d latency = %d, want 140", i, lat)
		}
		// The level below still demand-fills it.
		if !h.Level(2).Cache.Probe(mem.Line(i * 64)) {
			t.Fatalf("demand line %d missing from L3", i*64)
		}
	}
	// Nofill: demand lines enter the L2 only when their own random draw
	// happened to pick offset 0 (the window [i, i+3] includes i). With a
	// 64-line stride no other miss's window can reach them, so most of the
	// 32 demand lines must be absent.
	present := 0
	for i := 0; i < n; i++ {
		if l2c.Probe(mem.Line(i * 64)) {
			present++
		}
	}
	if present == n {
		t.Fatal("every demand line installed in random-fill L2; nofill not applied")
	}
	fs := h.Level(1).FillStats()
	if fs == nil {
		t.Fatal("FillStats nil for an engine level")
	}
	if fs.NoFills != n {
		t.Fatalf("nofills = %d, want %d", fs.NoFills, n)
	}
	if fs.RandomIssued+fs.RandomDropped+fs.RandomClamped != n {
		t.Fatalf("random decisions %d+%d+%d don't cover %d misses",
			fs.RandomIssued, fs.RandomDropped, fs.RandomClamped, n)
	}
	if fs.RandomIssued == 0 {
		t.Fatal("no random fills issued over 32 misses with window [0,3]")
	}
	// Every issued random fill fetched its data from below (a background
	// memory or L3 access) — the L2's access count must include them.
	l2 := h.Level(1).Stats()
	if l2.Accesses != n {
		t.Fatalf("L2 accesses = %d, want %d demand misses", l2.Accesses, n)
	}
	if got := h.Level(2).Stats().Accesses; got != n+fs.RandomIssued {
		t.Fatalf("L3 accesses = %d, want %d demand + %d random", got, n, fs.RandomIssued)
	}
	if fs.NormalFills != 0 {
		t.Fatalf("normal fills = %d on an enabled engine", fs.NormalFills)
	}
}

func TestFillStatsNilForDemandLevel(t *testing.T) {
	l := NewLevel(oneLine(), 1)
	if l.FillStats() != nil {
		t.Fatal("demand level reported fill stats")
	}
}

func TestAccessFunctionalPath(t *testing.T) {
	h := New(50, NewLevel(small(4), 1), NewLevel(small(8), 10))
	hit, lat := h.Access(3, false)
	if hit || lat != 1+10+50 {
		t.Fatalf("cold access: hit=%v lat=%d", hit, lat)
	}
	hit, lat = h.Access(3, false)
	if !hit || lat != 1 {
		t.Fatalf("warm access: hit=%v lat=%d", hit, lat)
	}
}

func TestAccessWithL0Engine(t *testing.T) {
	l1c := small(4)
	eng := core.NewEngine(l1c, rng.New(3))
	eng.SetRR(0, 3)
	h := New(50, NewLevel(l1c, 1).WithEngine(eng), NewLevel(small(32), 10))
	const n = 16
	hits := 0
	for i := 0; i < n; i++ {
		if hit, _ := h.Access(mem.Line(i), false); hit {
			hits++
		}
	}
	fs := h.Level(0).FillStats()
	if fs.NoFills == 0 || fs.NoFills != uint64(n-hits) {
		t.Fatalf("nofills = %d with %d hits over %d accesses", fs.NoFills, hits, n)
	}
	// Random fills land in the L1 without the demand line doing so; with a
	// forward window over a dense scan some later access must hit one.
	if fs.RandomIssued == 0 {
		t.Fatal("no random fills issued")
	}
}

func TestAccessWithDisabledL0EngineDemandFills(t *testing.T) {
	l1c := small(4)
	eng := core.NewEngine(l1c, rng.New(3)) // window [0,0]: disabled
	h := New(50, NewLevel(l1c, 1).WithEngine(eng), NewLevel(small(8), 10))
	h.Access(9, true)
	if !l1c.Probe(9) {
		t.Fatal("disabled engine did not demand-fill")
	}
	if h.Level(0).FillStats().NormalFills != 1 {
		t.Fatalf("fill stats = %+v", *h.Level(0).FillStats())
	}
}

func TestAccessors(t *testing.T) {
	h := threeLevel()
	if h.Depth() != 3 {
		t.Fatalf("depth = %d", h.Depth())
	}
	if h.memLat != 100 {
		t.Fatalf("memLat = %d", h.memLat)
	}
	if !strings.Contains(h.String(), "3 levels") {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestNewPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("no levels", func() { New(10) })
	expectPanic("nil cache", func() { New(10, &Level{HitLat: 1}) })
	expectPanic("foreign engine", func() {
		c1, c2 := oneLine(), oneLine()
		New(10, &Level{Cache: c1, HitLat: 1, Engine: core.NewEngine(c2, rng.New(1))})
	})
	expectPanic("WithEngine foreign", func() {
		NewLevel(oneLine(), 1).WithEngine(core.NewEngine(oneLine(), rng.New(1)))
	})
}
