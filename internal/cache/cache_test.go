package cache

import (
	"testing"
	"testing/quick"

	"randfill/internal/mem"
	"randfill/internal/rng"
)

func small() *SetAssoc {
	// 4 sets x 2 ways, 64B lines = 512B.
	return NewSetAssoc(Geometry{SizeBytes: 512, Ways: 2}, LRU{})
}

func TestMissThenFillThenHit(t *testing.T) {
	c := small()
	l := mem.Line(5)
	if c.Lookup(l, false) {
		t.Fatal("empty cache hit")
	}
	if v := c.Fill(l, FillOpts{}); v.Valid {
		t.Fatal("fill into empty cache displaced a line")
	}
	if !c.Lookup(l, false) {
		t.Fatal("miss after fill")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 || s.Accesses() != 2 {
		t.Errorf("stats = %+v", *s)
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	c := small()
	c.Fill(0, FillOpts{})
	before := *c.Stats()
	if !c.Probe(0) {
		t.Fatal("probe missed present line")
	}
	if c.Probe(1) {
		t.Fatal("probe hit absent line")
	}
	if *c.Stats() != before {
		t.Error("probe changed statistics")
	}
}

func TestSetMapping(t *testing.T) {
	c := small() // 4 sets
	// Lines 0, 4, 8 map to set 0; lines 1, 5 to set 1.
	if c.SetIndex(0) != 0 || c.SetIndex(4) != 0 || c.SetIndex(8) != 0 {
		t.Error("set mapping for set 0 wrong")
	}
	if c.SetIndex(1) != 1 || c.SetIndex(5) != 1 {
		t.Error("set mapping for set 1 wrong")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways
	// Fill set 0 with lines 0 and 4, touch 0, then fill 8: line 4 (LRU)
	// must be evicted.
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{})
	c.Lookup(0, false)
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 4 {
		t.Fatalf("evicted %+v, want line 4", v)
	}
	if !c.Probe(0) || c.Probe(4) || !c.Probe(8) {
		t.Error("wrong post-eviction contents")
	}
}

func TestFIFOEvictionIgnoresHits(t *testing.T) {
	c := NewSetAssoc(Geometry{SizeBytes: 512, Ways: 2}, FIFO{})
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{})
	c.Lookup(0, false) // would save line 0 under LRU
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 0 {
		t.Fatalf("FIFO evicted %+v, want line 0", v)
	}
}

func TestRandomPolicyEvictsAllWays(t *testing.T) {
	c := NewSetAssoc(Geometry{SizeBytes: 512, Ways: 4}, Random{Src: rng.New(1)})
	// Keep set 0 full and count which victim ways appear.
	seen := make(map[mem.Line]bool)
	for i := 0; i < 4; i++ {
		c.Fill(mem.Line(i*4), FillOpts{})
	}
	next := mem.Line(16)
	for i := 0; i < 400; i++ {
		v := c.Fill(next, FillOpts{})
		if !v.Valid {
			t.Fatal("full set produced no victim")
		}
		seen[v.Line] = true
		next = v.Line // refill the evicted line next round
	}
	if len(seen) < 4 {
		t.Errorf("random policy only ever evicted %d distinct lines", len(seen))
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := small()
	c.Fill(0, FillOpts{Dirty: true})
	c.Fill(4, FillOpts{})
	v := c.Fill(8, FillOpts{}) // evicts dirty line 0 (LRU)
	if !v.Valid || v.Line != 0 || !v.Dirty {
		t.Fatalf("victim = %+v", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := small()
	c.Fill(0, FillOpts{})
	c.Lookup(0, true) // write hit
	c.Fill(4, FillOpts{})
	v := c.Fill(8, FillOpts{})
	if !v.Dirty {
		t.Error("write hit did not mark line dirty")
	}
}

func TestFillExistingLineDisplacesNothing(t *testing.T) {
	c := small()
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{})
	v := c.Fill(0, FillOpts{Dirty: true})
	if v.Valid || v.Refused {
		t.Errorf("refresh fill displaced %+v", v)
	}
	if c.Stats().Fills != 2 {
		t.Errorf("fills = %d, want 2 (refresh not counted)", c.Stats().Fills)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Fill(0, FillOpts{})
	if !c.Invalidate(0) {
		t.Fatal("invalidate missed present line")
	}
	if c.Invalidate(0) {
		t.Fatal("invalidate hit absent line")
	}
	if c.Probe(0) {
		t.Fatal("line survived invalidation")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	for i := 0; i < 8; i++ {
		c.Fill(mem.Line(i), FillOpts{})
	}
	c.Flush()
	if got := len(c.Contents()); got != 0 {
		t.Errorf("%d lines survived flush", got)
	}
}

func TestEvictionObserver(t *testing.T) {
	c := small()
	var victims []Victim
	c.SetEvictionObserver(func(v Victim) { victims = append(victims, v) })
	c.Fill(0, FillOpts{Offset: 3})
	c.Fill(4, FillOpts{})
	c.Lookup(0, false)
	c.Fill(8, FillOpts{}) // evicts 4 (LRU after the touch of 0)
	if len(victims) != 1 {
		t.Fatalf("observer saw %d victims, want 1", len(victims))
	}
	if victims[0].Line != 4 || victims[0].Referenced {
		t.Errorf("victim = %+v", victims[0])
	}
	c.Invalidate(0)
	if len(victims) != 2 {
		t.Fatalf("observer missed invalidation")
	}
	if victims[1].Line != 0 || !victims[1].Referenced || victims[1].Offset != 3 {
		t.Errorf("invalidated victim = %+v", victims[1])
	}
}

func TestDrainValidReportsWithoutInvalidating(t *testing.T) {
	c := small()
	n := 0
	c.SetEvictionObserver(func(v Victim) { n++ })
	c.Fill(0, FillOpts{})
	c.Fill(1, FillOpts{})
	c.DrainValid()
	if n != 2 {
		t.Errorf("DrainValid reported %d lines, want 2", n)
	}
	if !c.Probe(0) || !c.Probe(1) {
		t.Error("DrainValid invalidated lines")
	}
}

func TestLockMetadata(t *testing.T) {
	c := small()
	c.Fill(7, FillOpts{Lock: true, Owner: 2})
	if !c.IsLocked(7) {
		t.Error("lock bit not set")
	}
}

// TestRestrictWays pins the per-owner way masks on one 4-way set in which
// owner 0 may fill ways 0-1, owner 1 ways 2-3, and every other owner no way.
func TestRestrictWays(t *testing.T) {
	const e = invalidTag
	type fill struct {
		line  mem.Line
		owner int
		lock  bool
	}
	cases := []struct {
		name    string
		fills   []fill
		want    []mem.Line // the set's ways after the fills; e = empty
		refused uint64
	}{
		{"first empty allowed way", []fill{{1, 1, false}}, []mem.Line{e, e, 1, e}, 0},
		{"victim among allowed ways",
			[]fill{{1, 1, false}, {2, 1, false}, {3, 1, false}}, []mem.Line{e, e, 3, 2}, 0},
		{"owners keep to their ways",
			[]fill{{1, 0, false}, {2, 1, false}, {3, 0, false}, {4, 0, false}}, []mem.Line{4, 3, 2, e}, 0},
		{"empty mask refuses", []fill{{1, 5, false}}, []mem.Line{e, e, e, e}, 1},
		{"locked way is no victim",
			[]fill{{1, 1, true}, {2, 1, false}, {3, 1, false}}, []mem.Line{e, e, 1, 3}, 0},
		{"all allowed ways locked refuses",
			[]fill{{1, 1, true}, {2, 1, true}, {3, 1, false}}, []mem.Line{e, e, 1, 2}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSetAssoc(Geometry{SizeBytes: 4 * mem.LineSize, Ways: 4}, LRU{})
			c.RestrictWays([]uint64{0b0011, 0b1100}, 0)
			for _, f := range tc.fills {
				c.Fill(f.line, FillOpts{Owner: f.owner, Lock: f.lock})
			}
			for w, l := range tc.want {
				if c.slots.tags[w] != l {
					t.Fatalf("ways = %v, want %v", c.slots.tags, tc.want)
				}
			}
			s := c.Stats()
			if s.FillRefused != tc.refused || s.Fills != uint64(len(tc.fills))-tc.refused {
				t.Errorf("FillRefused = %d, Fills = %d, want %d refused of %d", s.FillRefused, s.Fills, tc.refused, len(tc.fills))
			}
		})
	}
	// An empty owner list still restricts: every owner gets the other mask.
	c := NewSetAssoc(Geometry{SizeBytes: 4 * mem.LineSize, Ways: 4}, LRU{})
	c.RestrictWays(nil, 0b0001)
	c.Fill(1, FillOpts{Owner: 0})
	if v := c.Fill(2, FillOpts{Owner: 0}); !v.Valid || v.Line != 1 {
		t.Errorf("second fill into a one-way mask evicted %+v, want line 1", v)
	}
}

// TestLockCount: the locked-line count follows Fill, Invalidate and Flush,
// and once it is back to zero a set whose locked line was invalidated
// evicts by plain LRU again.
func TestLockCount(t *testing.T) {
	c := small()
	c.Fill(0, FillOpts{Lock: true, Owner: 1})
	c.Fill(0, FillOpts{Lock: true, Owner: 1}) // refreshing a locked line counts it once
	c.Fill(4, FillOpts{})
	c.Fill(4, FillOpts{Lock: true, Owner: 1}) // locking refresh
	c.Fill(1, FillOpts{Lock: true, Owner: 1})
	if c.slots.locked != 3 {
		t.Fatalf("locked = %d, want 3", c.slots.locked)
	}
	if v := c.Fill(8, FillOpts{}); !v.Refused {
		t.Fatalf("fill into a fully locked set returned %+v", v)
	}
	c.Invalidate(0)
	if c.slots.locked != 2 {
		t.Fatalf("locked = %d after invalidating a locked line, want 2", c.slots.locked)
	}
	if v := c.Fill(8, FillOpts{}); v.Valid || v.Refused {
		t.Fatalf("fill into the invalidated way returned %+v", v)
	}
	if v := c.Fill(12, FillOpts{}); !v.Valid || v.Line != 8 {
		t.Fatalf("fill beside a locked line evicted %+v, want line 8", v)
	}
	c.Flush()
	if c.slots.locked != 0 {
		t.Fatalf("locked = %d after Flush, want 0", c.slots.locked)
	}
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{})
	if v := c.Fill(8, FillOpts{}); !v.Valid || v.Line != 0 {
		t.Fatalf("fill after Flush evicted %+v, want LRU line 0", v)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(lines []uint16) bool {
		c := small()
		for _, l := range lines {
			c.Fill(mem.Line(l), FillOpts{})
		}
		return len(c.Contents()) <= c.NumLines()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillLookupAgree(t *testing.T) {
	// Property: immediately after Fill(l), Lookup(l) hits; and a line
	// reported evicted no longer Probes.
	f := func(lines []uint16) bool {
		c := small()
		for _, raw := range lines {
			l := mem.Line(raw)
			v := c.Fill(l, FillOpts{})
			if !c.Probe(l) {
				return false
			}
			if v.Valid && c.Probe(v.Line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{SizeBytes: 0, Ways: 1},
		{SizeBytes: 100, Ways: 1},      // not a line multiple
		{SizeBytes: 512, Ways: 3},      // lines not divisible by ways
		{SizeBytes: 64 * 12, Ways: 2},  // 6 sets: not a power of two
		{SizeBytes: 64 * 12, Ways: 12}, // ok sets=1? 12 lines /12 ways =1 set: valid actually
	}
	for _, g := range bad[:4] {
		func() {
			defer func() { recover() }()
			NewSetAssoc(g, LRU{})
			t.Errorf("geometry %+v did not panic", g)
		}()
	}
	// Fully associative single set is legal.
	NewSetAssoc(Geometry{SizeBytes: 64 * 12, Ways: 12}, LRU{})
}

func TestGeometryString(t *testing.T) {
	if s := (Geometry{SizeBytes: 8192, Ways: 1}).String(); s != "8KB DM" {
		t.Errorf("String = %q", s)
	}
	if s := (Geometry{SizeBytes: 32768, Ways: 4}).String(); s != "32KB 4-way" {
		t.Errorf("String = %q", s)
	}
}

// TestLookupAllocFree pins the Lookup/Fill hot path at zero heap
// allocations for every shipped replacement policy: the simulator calls
// Lookup once per trace access (see DESIGN.md §7).
func TestLookupAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"lru", LRU{}},
		{"fifo", FIFO{}},
		{"random", Random{Src: rng.New(3)}},
		{"plru", PLRU{}},
		{"srrip", SRRIP{}},
		{"brrip", BRRIP{Src: rng.New(4)}},
	} {
		c := NewSetAssoc(Geometry{SizeBytes: 4096, Ways: 4}, tc.policy)
		var l mem.Line
		if got := testing.AllocsPerRun(1000, func() {
			l += 13 // mix hits, misses, fills and evictions
			c.Lookup(l%97, false)
			c.Fill(l%97, FillOpts{})
		}); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
}
