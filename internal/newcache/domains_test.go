package newcache

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

func TestDomainsHaveSeparateTables(t *testing.T) {
	c := New(1024, 2, rng.New(1)) // 16 physical lines
	c.SetActiveDomain(0)
	c.Fill(5, cache.FillOpts{})
	if !c.Probe(5) {
		t.Fatal("domain 0 cannot see its own line")
	}
	// Domain 1's table has no mapping for the same address.
	c.SetActiveDomain(1)
	if c.Probe(5) {
		t.Fatal("protected domain 1 sees domain 0's mapping")
	}
	// Domain 1 can cache the same address independently.
	c.Fill(5, cache.FillOpts{})
	if !c.Probe(5) {
		t.Fatal("domain 1 cannot fill its own mapping")
	}
	c.SetActiveDomain(0)
	if !c.Probe(5) {
		t.Fatal("domain 0 lost its mapping after domain 1 filled")
	}
}

func TestDomainClamping(t *testing.T) {
	c := New(1024, 2, rng.New(2))
	c.SetActiveDomain(-1)
	if c.active != 0 {
		t.Errorf("negative domain → %d", c.active)
	}
	c.SetActiveDomain(MaxDomains + 2)
	if d := c.active; d < 0 || d >= MaxDomains {
		t.Errorf("overflow domain → %d", d)
	}
}

func TestInvalidateIsTagScan(t *testing.T) {
	// clflush semantics: an invalidation from another domain still
	// removes the line (it matches by address, not through the issuing
	// domain's table).
	c := New(1024, 2, rng.New(3))
	c.SetActiveDomain(1)
	c.Fill(7, cache.FillOpts{})
	c.SetActiveDomain(0)
	if !c.Invalidate(7) {
		t.Fatal("cross-domain clflush missed the line")
	}
	c.SetActiveDomain(1)
	if c.Probe(7) {
		t.Fatal("line survived cross-domain clflush")
	}
}

func TestCrossDomainEvictionTearsDownOwnerMapping(t *testing.T) {
	// When a domain-1 line is randomly evicted by domain-0 pressure, the
	// domain-1 mapping must be torn down (no stale mapping to an
	// overwritten physical line).
	c := New(512, 2, rng.New(4)) // 8 physical lines
	c.SetActiveDomain(1)
	c.Fill(100, cache.FillOpts{})
	c.SetActiveDomain(0)
	for i := 0; i < 200; i++ {
		c.Fill(mem.Line(i), cache.FillOpts{})
	}
	c.SetActiveDomain(1)
	// Either the line survived (improbable after 200 random evictions)
	// or probing it must miss cleanly; a stale mapping would make Probe
	// return true for an overwritten physical line.
	if c.Probe(100) {
		// Verify it is genuinely line 100 by invalidating and
		// re-probing.
		c.Invalidate(100)
		if c.Probe(100) {
			t.Fatal("stale mapping: probe hits after invalidation")
		}
	}
	// Consistency sweep: every line a domain can probe must be in
	// Contents.
	valid := make(map[mem.Line]bool)
	for _, l := range c.Contents() {
		valid[l] = true
	}
	for d := 0; d < MaxDomains; d++ {
		c.SetActiveDomain(d)
		for l := mem.Line(0); l < 300; l++ {
			if c.Probe(l) && !valid[l] {
				t.Fatalf("domain %d probes line %d not in contents", d, l)
			}
		}
	}
}
