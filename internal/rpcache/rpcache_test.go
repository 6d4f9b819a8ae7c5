package rpcache

import (
	"testing"
	"testing/quick"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

func rp() *RPcache {
	return NewWithPolicy(cache.Geometry{SizeBytes: 2048, Ways: 2}, rng.New(1), nil) // 16 sets x 2 ways
}

func TestMissFillHit(t *testing.T) {
	c := rp()
	if c.Lookup(3, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(3, cache.FillOpts{})
	if !c.Lookup(3, false) {
		t.Fatal("miss after fill")
	}
	if !c.Probe(3) {
		t.Fatal("probe missed present line")
	}
}

func TestSameDomainEvictionIsPlainLRU(t *testing.T) {
	c := rp()
	// Same domain throughout: fills behave like a conventional SA cache.
	c.Fill(0, cache.FillOpts{})
	c.Fill(16, cache.FillOpts{}) // same logical set (16 sets)
	c.Lookup(0, false)
	v := c.Fill(32, cache.FillOpts{})
	if !v.Valid() || v.Line != 16 {
		t.Fatalf("victim %+v, want line 16", v)
	}
	if !c.Probe(0) || !c.Probe(32) {
		t.Error("contents wrong after same-domain eviction")
	}
}

func TestCrossDomainEvictionDeflected(t *testing.T) {
	// The attacker (domain 0) fills a set; the victim (domain 1)
	// conflicts with it. Across many trials, the attacker line actually
	// evicted must be spread over many sets, not pinned to the
	// contended one.
	evictedSets := make(map[int]bool)
	for trial := 0; trial < 200; trial++ {
		c := NewWithPolicy(cache.Geometry{SizeBytes: 2048, Ways: 2}, rng.New(uint64(trial+1)), nil)
		c.SetActiveDomain(0)
		// Attacker fills every set, both ways.
		for w := 0; w < 2; w++ {
			for s := 0; s < 16; s++ {
				c.Fill(mem.Line(1000+w*16+s), cache.FillOpts{Owner: 0})
			}
		}
		// Victim access conflicting with logical set 5.
		c.SetActiveDomain(1)
		c.Fill(5, cache.FillOpts{Owner: 1})
		// Which attacker lines are gone?
		c.SetActiveDomain(0)
		for w := 0; w < 2; w++ {
			for s := 0; s < 16; s++ {
				if !c.Probe(mem.Line(1000 + w*16 + s)) {
					evictedSets[s] = true
				}
			}
		}
	}
	if len(evictedSets) < 8 {
		t.Errorf("evictions confined to %d sets; deflection not randomizing (sets: %v)",
			len(evictedSets), evictedSets)
	}
}

func TestVictimStillHitsAfterDeflection(t *testing.T) {
	c := rp()
	c.SetActiveDomain(0)
	for s := 0; s < 16; s++ {
		c.Fill(mem.Line(100+s), cache.FillOpts{Owner: 0})
		c.Fill(mem.Line(200+s), cache.FillOpts{Owner: 0})
	}
	c.SetActiveDomain(1)
	c.Fill(7, cache.FillOpts{Owner: 1})
	if !c.Probe(7) {
		t.Fatal("deflected fill did not install the line")
	}
	if !c.Lookup(7, false) {
		t.Fatal("victim's line not hittable after permutation swap")
	}
}

func TestDomainsSeeOwnMappings(t *testing.T) {
	// After domain 1's permutation diverges, domain 0's view of its own
	// lines must be unaffected (beyond the one deflected eviction and
	// the invalidations of domain-1 lines).
	c := rp()
	c.SetActiveDomain(0)
	c.Fill(3, cache.FillOpts{Owner: 0})
	c.SetActiveDomain(1)
	// Force many deflections for domain 1.
	c.SetActiveDomain(0)
	for i := 0; i < 32; i++ {
		c.Fill(mem.Line(500+i), cache.FillOpts{Owner: 0})
	}
	c.SetActiveDomain(1)
	for i := 0; i < 32; i++ {
		c.Fill(mem.Line(800+i), cache.FillOpts{Owner: 1})
	}
	// Domain 1's own lines remain findable under its permutation.
	found := 0
	for i := 0; i < 32; i++ {
		if c.Probe(mem.Line(800 + i)) {
			found++
		}
	}
	if found == 0 {
		t.Error("domain 1 lost every line it filled")
	}
}

func TestCapacityInvariant(t *testing.T) {
	f := func(ops []uint16, domains []uint8) bool {
		c := NewWithPolicy(cache.Geometry{SizeBytes: 2048, Ways: 2}, rng.New(7), nil)
		for i, op := range ops {
			if len(domains) > 0 {
				c.SetActiveDomain(int(domains[i%len(domains)]) % 3)
			}
			c.Fill(mem.Line(op), cache.FillOpts{Owner: c.active})
		}
		return len(c.slots.Contents()) <= c.NumLines()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeConsistentWithFill(t *testing.T) {
	// Within a single domain, a just-filled line always probes.
	f := func(lines []uint16) bool {
		c := NewWithPolicy(cache.Geometry{SizeBytes: 2048, Ways: 2}, rng.New(3), nil)
		for _, l := range lines {
			c.Fill(mem.Line(l), cache.FillOpts{})
			if !c.Probe(mem.Line(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	c := rp()
	c.Fill(1, cache.FillOpts{})
	c.Fill(2, cache.FillOpts{})
	if !c.Invalidate(1) || c.Invalidate(1) {
		t.Error("invalidate semantics wrong")
	}
	c.Flush()
	if len(c.slots.Contents()) != 0 {
		t.Error("flush left lines behind")
	}
}

func TestSetActiveDomainClamps(t *testing.T) {
	c := rp()
	c.SetActiveDomain(-3)
	if c.active != 0 {
		t.Errorf("negative domain → %d", c.active)
	}
	c.SetActiveDomain(MaxDomains + 1)
	if d := c.active; d < 0 || d >= MaxDomains {
		t.Errorf("overflow domain → %d", d)
	}
}

func TestEvictionObserver(t *testing.T) {
	c := rp()
	n := 0
	c.SetEvictionObserver(func(v cache.Victim) { n++ })
	c.Fill(0, cache.FillOpts{})
	c.Fill(16, cache.FillOpts{})
	c.Fill(32, cache.FillOpts{})
	if n != 1 {
		t.Errorf("observer saw %d evictions, want 1", n)
	}
}
