package newcache

import (
	"testing"
	"testing/quick"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

func nc() *Newcache { return New(512, 2, rng.New(1)) } // 8 physical lines, 32 logical

func TestMissFillHit(t *testing.T) {
	c := nc()
	if c.Lookup(3, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(3, cache.FillOpts{})
	if !c.Lookup(3, false) {
		t.Fatal("miss after fill")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats %+v", *s)
	}
}

func TestProbeNoSideEffects(t *testing.T) {
	c := nc()
	c.Fill(3, cache.FillOpts{})
	before := *c.Stats()
	if !c.Probe(3) || c.Probe(4) {
		t.Error("probe results wrong")
	}
	if *c.Stats() != before {
		t.Error("probe changed stats")
	}
}

func TestLogicalIndexWidth(t *testing.T) {
	c := nc() // 8 phys lines, k=2 → 32 logical indices
	if c.LogicalIndex(0) != 0 || c.LogicalIndex(31) != 31 || c.LogicalIndex(32) != 0 {
		t.Error("logical index mask wrong")
	}
}

func TestTagConflictReplacesMappedLine(t *testing.T) {
	// Two lines sharing a logical index (32 apart here) conflict
	// deterministically in the logical direct-mapped cache.
	c := nc()
	c.Fill(5, cache.FillOpts{})
	v := c.Fill(5+32, cache.FillOpts{})
	if !v.Valid() || v.Line != 5 {
		t.Fatalf("tag conflict victim %+v, want line 5", v)
	}
	if c.Probe(5) || !c.Probe(5+32) {
		t.Error("conflict replacement contents wrong")
	}
}

func TestIndexMissUsesRandomVictim(t *testing.T) {
	// Fill beyond capacity with distinct logical indices: victims must
	// be spread over many physical lines (random replacement), not a
	// single deterministic slot.
	c := New(512, 2, rng.New(7)) // 8 physical lines
	victims := make(map[mem.Line]bool)
	for i := 0; i < 200; i++ {
		v := c.Fill(mem.Line(i), cache.FillOpts{})
		if v.Valid() {
			victims[v.Line] = true
		}
	}
	if len(victims) < 8 {
		t.Errorf("victims covered only %d distinct lines", len(victims))
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(512, 4, rng.New(3))
		for _, l := range lines {
			c.Fill(mem.Line(l), cache.FillOpts{})
		}
		return len(c.slots.Contents()) <= c.NumLines()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillRefreshDisplacesNothing(t *testing.T) {
	c := nc()
	c.Fill(3, cache.FillOpts{})
	if v := c.Fill(3, cache.FillOpts{Dirty: true}); v.Valid() {
		t.Errorf("refresh displaced %+v", v)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := nc()
	c.Fill(1, cache.FillOpts{})
	c.Fill(2, cache.FillOpts{})
	if !c.Invalidate(1) || c.Invalidate(1) {
		t.Error("invalidate semantics wrong")
	}
	c.Flush()
	if len(c.slots.Contents()) != 0 {
		t.Error("flush left lines behind")
	}
	if c.Probe(2) {
		t.Error("line survived flush")
	}
}

func TestEvictionObserverAndWriteback(t *testing.T) {
	c := nc()
	var victims []cache.Victim
	c.SetEvictionObserver(func(v cache.Victim) { victims = append(victims, v) })
	c.Fill(5, cache.FillOpts{Dirty: true})
	c.Lookup(5, false)
	c.Fill(5+32, cache.FillOpts{}) // deterministic tag conflict
	if len(victims) != 1 || victims[0].Line != 5 || !victims[0].Dirty() || !victims[0].Referenced() {
		t.Errorf("victims = %+v", victims)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestRemapConsistency(t *testing.T) {
	// Property: after any fill sequence, every valid physical line is
	// reachable through the remap table under its own logical index.
	f := func(lines []uint16) bool {
		c := New(1024, 3, rng.New(11))
		for _, l := range lines {
			c.Fill(mem.Line(l), cache.FillOpts{})
		}
		for _, l := range c.slots.Contents() {
			if !c.Probe(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHarderToClean(t *testing.T) {
	// The paper notes completely cleaning Newcache is harder than
	// cleaning an SA cache because of random replacement: filling with
	// exactly capacity-many fresh lines rarely evicts everything.
	c := New(512, 2, rng.New(5)) // 8 lines
	c.Fill(1000, cache.FillOpts{})
	for i := 0; i < 8; i++ {
		c.Fill(mem.Line(2000+i), cache.FillOpts{})
	}
	// With random replacement the probability the single victim line
	// survived is (7/8)^8 ≈ 0.34, so across seeds survival must occur;
	// with this seed just assert the documented possibility holds for
	// at least one of several target lines.
	survived := 0
	for trial := 0; trial < 50; trial++ {
		c2 := New(512, 2, rng.New(uint64(trial)))
		c2.Fill(1000, cache.FillOpts{})
		for i := 0; i < 8; i++ {
			c2.Fill(mem.Line(2000+i), cache.FillOpts{})
		}
		if c2.Probe(1000) {
			survived++
		}
	}
	if survived == 0 {
		t.Error("line never survived an exact-capacity cleaning pass; replacement does not look random")
	}
	if survived == 50 {
		t.Error("line always survived; replacement never evicts it")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []func(){
		func() { New(0, 2, rng.New(1)) },
		func() { New(100, 2, rng.New(1)) },
		func() { New(64*3, 2, rng.New(1)) },
		func() { New(512, -1, rng.New(1)) },
		func() { New(512, 2, nil) },
	}
	for i, f := range bad {
		func() {
			defer func() { recover() }()
			f()
			t.Errorf("case %d did not panic", i)
		}()
	}
}
