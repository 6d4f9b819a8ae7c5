package nomo

import (
	"testing"
	"testing/quick"

	"randfill/internal/cache"
	"randfill/internal/mem"
)

// nm builds a 4-way cache with 1 way reserved per each of 2 threads
// (NoMo-1, 2 ways shared).
func nm() *cache.SetAssoc { return NewWithPolicy(cache.Geometry{SizeBytes: 1024, Ways: 4}, 2, 1, nil) }

func TestBasicHitMiss(t *testing.T) {
	c := nm()
	if c.Lookup(0, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(0, cache.FillOpts{Owner: 0})
	if !c.Lookup(0, false) {
		t.Fatal("miss after fill")
	}
}

func TestReservedWayProtected(t *testing.T) {
	c := nm() // 4 sets x 4 ways; way 0 reserved for thread 0, way 1 for thread 1
	// Thread 0 fills its reserved way in set 0.
	c.Fill(0, cache.FillOpts{Owner: 0})
	// Thread 1 streams conflicting lines through set 0; thread 0's line
	// must survive (thread 1 can use way 1 and the shared ways 2-3).
	for i := 1; i < 40; i++ {
		c.Fill(mem.Line(i*4), cache.FillOpts{Owner: 1})
	}
	if !c.Probe(0) {
		t.Fatal("thread 0's reserved line was evicted by thread 1")
	}
}

func TestOwnReservationEvictable(t *testing.T) {
	c := nm()
	c.Fill(0, cache.FillOpts{Owner: 0})
	// Thread 0 itself can churn through its reservation + shared pool.
	for i := 1; i < 40; i++ {
		c.Fill(mem.Line(i*4), cache.FillOpts{Owner: 0})
	}
	// The original line is evictable by its own thread (some later fill
	// displaced it).
	if c.Probe(0) {
		// Not necessarily wrong — it could have been LRU-protected —
		// but with 40 conflicting fills over 3 eligible ways it must
		// be long gone.
		t.Fatal("thread 0 could not evict its own old line")
	}
}

func TestSharedPoolContention(t *testing.T) {
	// Both threads can use the shared ways: filling 3 lines from thread
	// 0 uses way 0 plus the two shared ways.
	c := nm()
	c.Fill(0, cache.FillOpts{Owner: 0})
	c.Fill(4, cache.FillOpts{Owner: 0})
	c.Fill(8, cache.FillOpts{Owner: 0})
	if !c.Probe(0) || !c.Probe(4) || !c.Probe(8) {
		t.Fatal("thread 0 could not use the shared pool")
	}
	// A 4th fill from thread 0 must not touch thread 1's reserved way
	// (which is invalid, so the fill must evict an eligible way instead
	// of using the reserved invalid one).
	c.Fill(12, cache.FillOpts{Owner: 0})
	present := 0
	for _, l := range []mem.Line{0, 4, 8, 12} {
		if c.Probe(l) {
			present++
		}
	}
	if present != 3 {
		t.Fatalf("%d of thread 0's lines present, want 3 (one evicted)", present)
	}
}

func TestUnknownThreadUsesSharedOnly(t *testing.T) {
	c := nm()
	// Owner 7 (out of range) can only fill the 2 shared ways per set.
	c.Fill(0, cache.FillOpts{Owner: 7})
	c.Fill(4, cache.FillOpts{Owner: 7})
	c.Fill(8, cache.FillOpts{Owner: 7}) // evicts one of the previous two
	present := 0
	for _, l := range []mem.Line{0, 4, 8} {
		if c.Probe(l) {
			present++
		}
	}
	if present != 2 {
		t.Fatalf("%d lines present for shared-only thread, want 2", present)
	}
}

func TestFullReservationRefusal(t *testing.T) {
	// 2 threads x 2 reserved ways = the whole 4-way set: an unknown
	// thread has no shared pool and its fills are refused.
	c := NewWithPolicy(cache.Geometry{SizeBytes: 1024, Ways: 4}, 2, 2, nil)
	v := c.Fill(0, cache.FillOpts{Owner: 5})
	if !v.Refused() {
		t.Fatalf("fill by shared-only thread returned %+v, want refusal", v)
	}
	if c.Stats().FillRefused != 1 {
		t.Errorf("FillRefused = %d", c.Stats().FillRefused)
	}
	if c.Stats().Fills != 0 {
		t.Errorf("Fills = %d after a refused fill, want 0", c.Stats().Fills)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-reservation did not panic")
		}
	}()
	NewWithPolicy(cache.Geometry{SizeBytes: 1024, Ways: 4}, 2, 3, nil)
}

func TestCapacityInvariant(t *testing.T) {
	f := func(lines []uint16, owners []uint8) bool {
		c := nm()
		for i, l := range lines {
			owner := 0
			if len(owners) > 0 {
				owner = int(owners[i%len(owners)]) % 2
			}
			c.Fill(mem.Line(l), cache.FillOpts{Owner: owner})
		}
		n := 0
		for l := mem.Line(0); l < 1<<16; l += 1 {
			if c.Probe(l) {
				n++
				if n > c.NumLines() {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIsolationProperty(t *testing.T) {
	// Property: no fill sequence by thread 1 can evict a line thread 0
	// holds in its reserved way, as long as thread 0 keeps it MRU among
	// its eligible ways.
	f := func(lines []uint16) bool {
		c := nm()
		c.Fill(0, cache.FillOpts{Owner: 0})
		for _, l := range lines {
			c.Fill(mem.Line(l)*4, cache.FillOpts{Owner: 1}) // all in set 0
			c.Lookup(0, false)                              // thread 0 keeps touching its line
		}
		return c.Probe(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushDrainObserver(t *testing.T) {
	c := nm()
	n := 0
	c.SetEvictionObserver(func(v cache.Victim) { n++ })
	c.Fill(0, cache.FillOpts{Owner: 0})
	c.Fill(1, cache.FillOpts{Owner: 1})
	c.Flush()
	if n != 2 {
		t.Errorf("flush reported %d", n)
	}
	if c.Probe(0) || c.Probe(1) {
		t.Error("lines survived flush")
	}
}
