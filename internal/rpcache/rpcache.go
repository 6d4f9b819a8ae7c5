// Package rpcache implements RPcache (Wang & Lee, ISCA 2007): a
// randomization-based secure cache that keeps a per-trust-domain
// permutation table in front of the set index. When a miss would evict a
// cache line belonging to a different trust domain, the eviction is
// deflected: a line in a randomly selected other set is evicted instead,
// the permutation table entries of the two sets are swapped, and the
// active domain's lines in both sets are invalidated — so an attacker
// observes evictions from sets unrelated to the victim's accessed address.
//
// The model exposes the same cache.Cache contract as the other
// architectures plus SetActiveDomain, which the simulator calls when
// switching hardware threads (the permutation table selection is part of
// the thread context, like the random fill engine's range registers).
package rpcache

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// MaxDomains bounds the number of trust domains with distinct permutation
// tables.
const MaxDomains = 4

// RPcache is a set-associative cache with per-domain set permutation. Its
// lines live in a cache.Slots store, physical set s in slots
// [s*ways, (s+1)*ways).
type RPcache struct {
	geom cache.Geometry
	sets int
	ways int
	// domain[i] is the trust domain that filled slot i.
	domain []uint8
	slots  cache.Slots
	// perm[d][logical set] = physical set.
	perm   [MaxDomains][]int32
	active int
	src    *rng.Source
}

var (
	_ cache.Cache       = (*RPcache)(nil)
	_ cache.DomainAware = (*RPcache)(nil)
)

// NewWithPolicy builds an RPcache whose within-set victim selection follows
// pol (nil selects the historical LRU default). All domains start with the
// identity permutation; deflected evictions randomize them over time. The
// deflection protocol — random alternate set and way, permutation swap — is
// untouched by the policy; only the same-domain replacement pick changes.
func NewWithPolicy(geom cache.Geometry, src *rng.Source, pol cache.Policy) *RPcache {
	if err := cache.CheckGeometry(geom); err != nil {
		panic(err)
	}
	if src == nil {
		panic("rpcache: nil rng source")
	}
	sets := geom.Sets()
	c := &RPcache{
		geom:   geom,
		sets:   sets,
		ways:   geom.Ways,
		domain: make([]uint8, sets*geom.Ways),
		slots:  cache.NewSlots(sets*geom.Ways, pol, nil),
		src:    src,
	}
	for d := 0; d < MaxDomains; d++ {
		c.perm[d] = make([]int32, sets)
		for s := range c.perm[d] {
			c.perm[d][s] = int32(s)
		}
	}
	return c
}

// SetActiveDomain selects the trust domain whose permutation table maps
// subsequent accesses. Out-of-range domains are clamped into [0,
// MaxDomains), modelling the limited number of hardware permutation tables.
func (c *RPcache) SetActiveDomain(d int) {
	if d < 0 {
		d = 0
	}
	c.active = d % MaxDomains
}

// NumLines returns the total line capacity.
func (c *RPcache) NumLines() int { return c.slots.NumLines() }

// Stats returns the live statistics counters.
func (c *RPcache) Stats() *cache.Stats { return c.slots.Stats() }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *RPcache) SetEvictionObserver(fn cache.EvictionObserver) { c.slots.SetEvictionObserver(fn) }

func (c *RPcache) logicalSet(l mem.Line) int { return int(uint64(l) & uint64(c.sets-1)) }

// set returns the slots of physical set phys.
func (c *RPcache) set(phys int) cache.Set { return cache.Range(phys*c.ways, c.ways) }

// physSet returns the physical set the active domain maps line l to.
func (c *RPcache) physSet(l mem.Line) int {
	return int(c.perm[c.active][c.logicalSet(l)])
}

// Lookup implements cache.Cache.
func (c *RPcache) Lookup(l mem.Line, write bool) bool {
	set := c.set(c.physSet(l))
	return c.slots.Access(set, c.slots.Find(set, l), write)
}

// Probe implements cache.Cache.
func (c *RPcache) Probe(l mem.Line) bool {
	return c.slots.Find(c.set(c.physSet(l)), l) >= 0
}

// Fill implements cache.Cache. The filled line is owned by the active
// domain; a victim from another domain triggers the deflected-eviction and
// permutation-swap protocol.
func (c *RPcache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	phys := c.physSet(l)
	set := c.set(phys)
	if w := c.slots.Find(set, l); w >= 0 {
		c.slots.Refresh(set, w, opts)
		return cache.Victim{}
	}

	// An invalid way needs no eviction and no deflection.
	if w := c.slots.Empty(set); w >= 0 {
		c.place(set, w, l, opts)
		return cache.Victim{}
	}

	// Policy victim of the mapped set.
	w := c.slots.Victim(set)
	if int(c.domain[c.slots.Slot(set, w)]) == c.active {
		// Same-domain eviction: plain replacement, nothing leaks
		// across domains.
		v := c.slots.Evict(c.slots.Slot(set, w))
		c.place(set, w, l, opts)
		return v
	}

	// Cross-domain contention: deflect. Evict a random line in a
	// randomly selected set S', swap the permutation entries so the
	// logical index now maps to S', and invalidate the active domain's
	// lines in both sets. The eviction comes first, so the observer sees
	// it before the invalidations.
	logical := c.logicalSet(l)
	altPhys := c.src.Intn(c.sets)
	alt := c.set(altPhys)
	aw := c.src.Intn(c.ways)
	var v cache.Victim
	if c.slots.Valid(c.slots.Slot(alt, aw)) {
		v = c.slots.Evict(c.slots.Slot(alt, aw))
	}
	// Find the logical index currently mapping to altPhys and swap.
	for idx := range c.perm[c.active] {
		if c.perm[c.active][idx] == int32(altPhys) {
			c.perm[c.active][idx] = int32(phys)
			break
		}
	}
	c.perm[c.active][logical] = int32(altPhys)
	// Invalidate the active domain's lines in both swapped sets (their
	// mapping just changed under them). The way selected for the new
	// line is exempt.
	invalidate := func(grp cache.Set, skip int) {
		for i := 0; i < c.ways; i++ {
			if p := c.slots.Slot(grp, i); i != skip && c.slots.Valid(p) && int(c.domain[p]) == c.active {
				c.slots.Invalidate(p)
			}
		}
	}
	if altPhys == phys {
		invalidate(set, aw)
	} else {
		invalidate(set, -1)
		invalidate(alt, aw)
	}
	c.place(alt, aw, l, opts)
	return v
}

// place installs line l into way w of set under the active domain.
func (c *RPcache) place(set cache.Set, w int, l mem.Line, opts cache.FillOpts) {
	c.slots.Install(set, w, l, opts)
	c.domain[c.slots.Slot(set, w)] = uint8(c.active)
}

// Invalidate implements cache.Cache. Invalidation matches by tag through
// every domain's permutation table, not only the issuing domain's (a
// clflush snoops by address). A valid line of domain d sits in physical set
// perm[d][logicalSet(tag)]: fills place it there, and a permutation swap
// invalidates the swapping domain's lines in both sets. The one set per
// table is therefore the whole search. When several ways hold l, the
// lowest physical index is evicted, the line a scan of the store would
// find first.
func (c *RPcache) Invalidate(l mem.Line) bool {
	logical := c.logicalSet(l)
	victim := -1
	for d := range c.perm {
		set := c.set(int(c.perm[d][logical]))
		if w := c.slots.Find(set, l); w >= 0 && (victim < 0 || c.slots.Slot(set, w) < victim) {
			victim = c.slots.Slot(set, w)
		}
	}
	if victim < 0 {
		return false
	}
	c.slots.Invalidate(victim)
	return true
}

// Flush implements cache.Cache.
func (c *RPcache) Flush() { c.slots.Flush() }

func (c *RPcache) String() string { return fmt.Sprintf("RPcache(%v)", c.geom) }

// Occupancy returns the number of valid lines (see cache.Slots.Occupancy).
func (c *RPcache) Occupancy() int { return c.slots.Occupancy() }
