package plcache

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
)

func pl() *cache.SetAssoc { return NewWithPolicy(cache.Geometry{SizeBytes: 512, Ways: 2}, nil) } // 4 sets x 2 ways

// lockedLines returns the number of locked lines in c.
func lockedLines(c *cache.SetAssoc) int {
	n := 0
	for _, l := range c.Contents() {
		if c.IsLocked(l) {
			n++
		}
	}
	return n
}

func TestBasicHitMiss(t *testing.T) {
	c := pl()
	if c.Lookup(0, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(0, cache.FillOpts{})
	if !c.Lookup(0, false) {
		t.Fatal("miss after fill")
	}
}

func TestLockedLineNeverEvicted(t *testing.T) {
	c := pl()
	c.Fill(0, cache.FillOpts{Lock: true, Owner: 1}) // set 0
	c.Fill(4, cache.FillOpts{})                     // set 0, unlocked
	// Stream conflicting lines through set 0; line 0 must survive.
	for i := 2; i < 30; i++ {
		c.Fill(mem.Line(i*4), cache.FillOpts{})
	}
	if !c.Probe(0) {
		t.Fatal("locked line was evicted")
	}
	if !c.IsLocked(0) {
		t.Fatal("lock bit lost")
	}
}

func TestAllWaysLockedRefusesFill(t *testing.T) {
	c := pl()
	c.Fill(0, cache.FillOpts{Lock: true, Owner: 1})
	c.Fill(4, cache.FillOpts{Lock: true, Owner: 1})
	v := c.Fill(8, cache.FillOpts{})
	if !v.Refused() {
		t.Fatalf("fill into fully locked set returned %+v, want refusal", v)
	}
	if c.Probe(8) {
		t.Fatal("refused line was cached anyway")
	}
	if c.Stats().FillRefused != 1 {
		t.Errorf("FillRefused = %d", c.Stats().FillRefused)
	}
}

func TestLRUAmongUnlocked(t *testing.T) {
	c := NewWithPolicy(cache.Geometry{SizeBytes: 1024, Ways: 4}, nil) // 4 sets x 4 ways
	c.Fill(0, cache.FillOpts{Lock: true, Owner: 1})
	c.Fill(4, cache.FillOpts{})
	c.Fill(8, cache.FillOpts{})
	c.Fill(12, cache.FillOpts{})
	c.Lookup(4, false) // 8 becomes LRU among unlocked
	v := c.Fill(16, cache.FillOpts{})
	if !v.Valid() || v.Line != 8 {
		t.Fatalf("victim %+v, want line 8", v)
	}
}

func TestPreloadLocksRegion(t *testing.T) {
	c := NewWithPolicy(cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}, nil)
	region := mem.Region{Base: 0x10000, Size: 1024} // 16 lines
	if failed := Preload(c, 1, region); failed != 0 {
		t.Fatalf("preload failed to lock %d lines", failed)
	}
	if n := lockedLines(c); n != 16 {
		t.Errorf("lockedLines = %d, want 16", n)
	}
	for _, l := range region.Lines() {
		if !c.Probe(l) || !c.IsLocked(l) {
			t.Errorf("line %d not locked in cache", l)
		}
	}
}

func TestPreloadOverflowReported(t *testing.T) {
	// A tiny 2-way cache cannot lock a region with >2 lines per set.
	c := pl()                                    // 4 sets x 2 ways = 8 lines
	region := mem.Region{Base: 0, Size: 3 * 512} // 24 lines over 4 sets → 6 per set
	failed := Preload(c, 1, region)
	if failed != 24-8 {
		t.Errorf("failed = %d, want 16", failed)
	}
	if n := lockedLines(c); n != 8 {
		t.Errorf("lockedLines = %d, want 8", n)
	}
}

func TestLockOnRefresh(t *testing.T) {
	// Re-filling a present line with a locking load sets the lock bit,
	// modelling the special load hitting in the cache.
	c := pl()
	c.Fill(0, cache.FillOpts{})
	if c.IsLocked(0) {
		t.Fatal("unlocked fill set lock bit")
	}
	c.Fill(0, cache.FillOpts{Lock: true, Owner: 3})
	if !c.IsLocked(0) {
		t.Fatal("locking refresh did not set lock bit")
	}
}

func TestInvalidateRemovesLockedLine(t *testing.T) {
	c := pl()
	c.Fill(0, cache.FillOpts{Lock: true, Owner: 1})
	if !c.Invalidate(0) {
		t.Fatal("invalidate failed")
	}
	if c.Probe(0) {
		t.Fatal("locked line survived explicit invalidation")
	}
}

// TestFlushAndDrain: Flush drains every line, locked or not, through the
// eviction observer.
func TestFlushAndDrain(t *testing.T) {
	c := pl()
	n := 0
	c.SetEvictionObserver(func(v cache.Victim) { n++ })
	c.Fill(0, cache.FillOpts{})
	c.Fill(1, cache.FillOpts{Lock: true, Owner: 1})
	c.Flush()
	if n != 2 {
		t.Errorf("flush observer count %d", n)
	}
	if len(c.Contents()) != 0 {
		t.Error("flush left lines")
	}
}

func TestDemandFillStillWorksAroundLocks(t *testing.T) {
	// With one way locked, the other way of the set still serves normal
	// traffic with LRU behaviour.
	c := pl()
	c.Fill(0, cache.FillOpts{Lock: true, Owner: 1})
	c.Fill(4, cache.FillOpts{})
	v := c.Fill(8, cache.FillOpts{})
	if !v.Valid() || v.Line != 4 {
		t.Fatalf("victim %+v, want 4", v)
	}
	if !c.Probe(0) || !c.Probe(8) {
		t.Error("contents wrong")
	}
}
