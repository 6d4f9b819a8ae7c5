package core

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

func newSA() *cache.SetAssoc {
	return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
}

func TestDisabledWindowIsDemandFetch(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(1))
	if e.Enabled() {
		t.Fatal("engine enabled by default")
	}
	e.SetRR(8, 7)
	e.SetRR(0, 0)
	if e.Enabled() {
		t.Fatal("SetRR(0,0) did not disable the engine")
	}
	if e.Access(100, false) {
		t.Fatal("cold access hit")
	}
	if !c.Probe(100) {
		t.Fatal("demand miss did not fill the cache with window [0,0]")
	}
	if !e.Access(100, false) {
		t.Fatal("second access missed")
	}
	if e.Stats().NormalFills != 1 || e.Stats().NoFills != 0 {
		t.Errorf("stats %+v", *e.Stats())
	}
}

// TestNoDemandFill checks the core security property: with random fill
// enabled, a demand miss is de-correlated from the fill — the demanded line
// itself ends up cached only with probability 1/W (when the uniform draw
// happens to pick offset 0), not deterministically as under demand fetch.
func TestNoDemandFill(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(2))
	e.SetRR(16, 15) // W = 32
	const trials = 4000
	selfFilled := 0
	for i := 0; i < trials; i++ {
		line := mem.Line(10000 + i*64) // far apart so windows never overlap
		if e.Access(line, false) {
			t.Fatal("cold access hit")
		}
		if c.Probe(line) {
			selfFilled++
		}
	}
	if e.Stats().NoFills != trials {
		t.Errorf("NoFills = %d", e.Stats().NoFills)
	}
	// Expected self-fill rate is 1/32 ≈ 3.1%; demand fetch would be 100%.
	frac := float64(selfFilled) / trials
	if frac > 0.06 {
		t.Errorf("demanded line cached %.1f%% of the time; fill not de-correlated", 100*frac)
	}
	if selfFilled == 0 {
		t.Error("offset 0 never drawn; window sampling looks broken")
	}
}

func TestRandomFillWithinWindow(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(3))
	e.SetRR(4, 3)
	base := mem.Line(100000)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		c.Flush()
		e.Access(base, false)
		got := c.Contents()
		if len(got) > 1 {
			t.Fatalf("more than one line filled: %v", got)
		}
		for _, l := range got {
			d := int(int64(l) - int64(base))
			if d < -4 || d > 3 {
				t.Fatalf("filled line offset %d outside window [-4,+3]", d)
			}
			seen[d] = true
		}
	}
	if len(seen) != 8 {
		t.Errorf("only %d of 8 window offsets ever filled", len(seen))
	}
}

func TestRandomFillDropsOnTagHit(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(4))
	e.SetRR(0, 0) // demand mode to seed
	// Pre-fill the entire window around base so every random fill hits.
	base := mem.Line(5000)
	for d := -2; d <= 1; d++ {
		c.Fill(base+mem.Line(d), cache.FillOpts{})
	}
	e.SetRR(2, 1)
	c.Invalidate(base) // make the demand line itself miss
	e.Access(base, false)
	if e.Stats().RandomDropped != 0 {
		// base is invalid so a draw of 0 would be issued; re-check both
		// counters are consistent instead of asserting an exact split.
	}
	total := e.Stats().RandomDropped + e.Stats().RandomIssued
	if total != 1 {
		t.Fatalf("one miss must produce exactly one random fill decision, got %d", total)
	}
}

func TestRandomFillAlwaysDroppedWhenWindowCached(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(5))
	base := mem.Line(7000)
	for d := -2; d <= 1; d++ {
		if d != 0 {
			c.Fill(base+mem.Line(d), cache.FillOpts{})
		}
	}
	e.SetRR(2, 1)
	dropped := uint64(0)
	for i := 0; i < 100; i++ {
		e.Access(base, false)
		// base itself never gets cached (nofill), so only draws of 0
		// can be "issued"; all other draws must be dropped.
		if e.Stats().RandomIssued > 0 {
			if !c.Probe(base) {
				t.Fatal("issued fill did not land")
			}
			c.Invalidate(base)
			e.Stats().RandomIssued = 0
		}
		dropped = e.Stats().RandomDropped
	}
	if dropped == 0 {
		t.Error("no random fills were dropped despite a cached window")
	}
}

func TestUnderflowClamped(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(6))
	e.SetRR(16, 15)
	for i := 0; i < 200; i++ {
		e.Access(0, false) // window extends below line 0
	}
	st := e.Stats()
	if st.RandomClamped == 0 {
		t.Error("no underflowing request was clamped")
	}
	if st.RandomClamped+st.RandomIssued+st.RandomDropped != st.NoFills {
		t.Errorf("decision counters inconsistent: %+v", *st)
	}
}

func TestOnMissRequestShapes(t *testing.T) {
	e := NewEngine(newSA(), rng.New(8))
	reqs := e.OnMiss(42)
	if reqs.Len() != 1 || reqs.At(0).Type != Normal || reqs.At(0).Line != 42 {
		t.Fatalf("demand mode OnMiss = %+v", reqs)
	}
	e.SetRR(8, 7)
	reqs = e.OnMiss(1000)
	if reqs.At(0).Type != NoFill || reqs.At(0).Line != 1000 {
		t.Fatalf("random mode first request = %+v", reqs.At(0))
	}
	if reqs.Len() == 2 {
		r := reqs.At(1)
		if r.Type != RandomFill {
			t.Fatalf("second request type %v", r.Type)
		}
		d := int(int64(r.Line) - 1000)
		if d < -8 || d > 7 || int(r.Offset) != d {
			t.Fatalf("random fill %+v offset mismatch d=%d", r, d)
		}
	}
}

func TestRequestsAtPanicsOutOfRange(t *testing.T) {
	e := NewEngine(newSA(), rng.New(8))
	reqs := e.OnMiss(42)
	defer func() {
		if recover() == nil {
			t.Error("At(Len()) did not panic")
		}
	}()
	reqs.At(reqs.Len())
}

// TestMissPathAllocFree pins the demand-miss kernel at zero heap
// allocations: OnMiss, the full Access miss path, and the Access hit path
// may not allocate, in any fill mode. These paths run millions of times per
// Table III cell; a single alloc/op here is a measurable regression (see
// DESIGN.md §7).
func TestMissPathAllocFree(t *testing.T) {
	c := newSA()
	e := NewEngine(c, rng.New(8))
	e.SetRR(8, 7)
	var line mem.Line
	if got := testing.AllocsPerRun(1000, func() {
		line += 97 // stride through sets so hits and misses both occur
		e.OnMiss(line)
	}); got != 0 {
		t.Errorf("OnMiss: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		line += 131
		e.Access(line, false)
	}); got != 0 {
		t.Errorf("Access (random fill, mixed hit/miss): %v allocs/op, want 0", got)
	}
	e.SetRR(0, 0)
	if got := testing.AllocsPerRun(1000, func() {
		line += 113
		e.Access(line, false)
	}); got != 0 {
		t.Errorf("Access (demand fetch, miss path): %v allocs/op, want 0", got)
	}
	e.Access(7, false)
	e.Access(7, false)
	if got := testing.AllocsPerRun(1000, func() {
		e.Access(7, false)
	}); got != 0 {
		t.Errorf("Access (hit path): %v allocs/op, want 0", got)
	}
}

func TestAccessWorksOnNewcacheStyleCache(t *testing.T) {
	// The engine must layer over any cache.Cache; use a random-policy SA
	// cache as the stand-in to catch interface misuse.
	c := cache.NewSetAssoc(cache.Geometry{SizeBytes: 1024, Ways: 4}, cache.Random{Src: rng.New(9)})
	e := NewEngine(c, rng.New(10))
	e.SetRR(2, 1)
	for i := 0; i < 500; i++ {
		e.Access(mem.Line(i%40), false)
	}
	if c.Stats().Accesses() != 500 {
		t.Errorf("accesses = %d", c.Stats().Accesses())
	}
}

func TestRequestTypeStrings(t *testing.T) {
	if Normal.String() != "normal" || NoFill.String() != "nofill" || RandomFill.String() != "randomfill" {
		t.Error("request type strings wrong")
	}
}
