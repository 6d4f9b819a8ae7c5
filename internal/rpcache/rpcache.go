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

type rpLine struct {
	tag        mem.Line
	valid      bool
	dirty      bool
	referenced bool
	domain     int
	offset     int8
}

// RPcache is a set-associative cache with per-domain set permutation.
type RPcache struct {
	geom  cache.Geometry
	sets  int
	ways  int
	lines []rpLine
	// stamps is the replacement-policy state, parallel to lines, operated
	// on as per-set subslices (same layout as cache.SetAssoc).
	stamps []uint64
	policy cache.Policy
	// perm[d][logical set] = physical set.
	perm   [MaxDomains][]int32
	active int
	src    *rng.Source
	tick   uint64
	stats  cache.Stats
	onEv   cache.EvictionObserver
}

var _ cache.Cache = (*RPcache)(nil)

// New builds an RPcache. All domains start with the identity permutation;
// deflected evictions randomize them over time.
func New(geom cache.Geometry, src *rng.Source) *RPcache {
	return NewWithPolicy(geom, src, nil)
}

// NewWithPolicy builds an RPcache whose within-set victim selection follows
// pol (nil selects the historical LRU default). The deflection protocol —
// random alternate set and way, permutation swap — is untouched by the
// policy; only the same-domain replacement pick changes.
func NewWithPolicy(geom cache.Geometry, src *rng.Source, pol cache.Policy) *RPcache {
	cache.ValidateGeometry(geom)
	if src == nil {
		panic("rpcache: nil rng source")
	}
	if pol == nil {
		pol = cache.LRU{}
	}
	if err := cache.PolicyValid(pol); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	c := &RPcache{
		geom:   geom,
		sets:   sets,
		ways:   geom.Ways,
		lines:  make([]rpLine, sets*geom.Ways),
		stamps: make([]uint64, sets*geom.Ways),
		policy: pol,
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
func (c *RPcache) NumLines() int { return len(c.lines) }

// Stats returns the live statistics counters.
func (c *RPcache) Stats() *cache.Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *RPcache) SetEvictionObserver(fn cache.EvictionObserver) { c.onEv = fn }

func (c *RPcache) logicalSet(l mem.Line) int { return int(uint64(l) & uint64(c.sets-1)) }

// physSet returns the physical set the active domain maps line l to.
func (c *RPcache) physSet(l mem.Line) int {
	return int(c.perm[c.active][c.logicalSet(l)])
}

func (c *RPcache) set(phys int) []rpLine {
	return c.lines[phys*c.ways : (phys+1)*c.ways]
}

// setStamps returns physical set phys's replacement-state words.
func (c *RPcache) setStamps(phys int) []uint64 {
	return c.stamps[phys*c.ways : (phys+1)*c.ways]
}

func find(s []rpLine, l mem.Line) int {
	for w := range s {
		if s[w].valid && s[w].tag == l {
			return w
		}
	}
	return -1
}

// Lookup implements cache.Cache.
func (c *RPcache) Lookup(l mem.Line, write bool) bool {
	phys := c.physSet(l)
	s := c.set(phys)
	w := find(s, l)
	if w < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	s[w].referenced = true
	c.policy.OnHit(c.setStamps(phys), w, c.tick)
	if write {
		s[w].dirty = true
	}
	return true
}

// Probe implements cache.Cache.
func (c *RPcache) Probe(l mem.Line) bool {
	return find(c.set(c.physSet(l)), l) >= 0
}

// Fill implements cache.Cache. The filled line is owned by the active
// domain; a victim from another domain triggers the deflected-eviction and
// permutation-swap protocol.
func (c *RPcache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	phys := c.physSet(l)
	s := c.set(phys)
	c.tick++
	if w := find(s, l); w >= 0 {
		s[w].dirty = s[w].dirty || opts.Dirty
		c.policy.OnFill(c.setStamps(phys), w, c.tick)
		return cache.Victim{}
	}
	c.stats.Fills++

	// An invalid way needs no eviction and no deflection.
	for w := range s {
		if !s[w].valid {
			c.place(s, phys, w, l, opts)
			return cache.Victim{}
		}
	}

	// Policy victim of the mapped set.
	w := c.policy.Victim(c.setStamps(phys))
	if s[w].domain == c.active {
		// Same-domain eviction: plain replacement, nothing leaks
		// across domains.
		v := c.evict(s, w)
		c.place(s, phys, w, l, opts)
		return v
	}

	// Cross-domain contention: deflect. Evict a random line in a
	// randomly selected set S', swap the permutation entries so the
	// logical index now maps to S', and invalidate the active domain's
	// lines in both sets.
	logical := c.logicalSet(l)
	altPhys := c.src.Intn(c.sets)
	alt := c.set(altPhys)
	aw := c.src.Intn(c.ways)
	var v cache.Victim
	if alt[aw].valid {
		v = c.evict(alt, aw)
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
	invalidate := func(grp []rpLine, skip int) {
		for i := range grp {
			if i == skip || !grp[i].valid || grp[i].domain != c.active {
				continue
			}
			c.stats.Invalidates++
			c.evict(grp, i)
		}
	}
	if altPhys == phys {
		invalidate(s, aw)
	} else {
		invalidate(s, -1)
		invalidate(alt, aw)
	}
	c.place(alt, altPhys, aw, l, opts)
	return v
}

// place installs line l into way w of physical set phys (whose line slice
// is s) under the active domain.
func (c *RPcache) place(s []rpLine, phys, w int, l mem.Line, opts cache.FillOpts) {
	s[w] = rpLine{
		tag:    l,
		valid:  true,
		dirty:  opts.Dirty,
		domain: c.active,
		offset: opts.Offset,
	}
	c.policy.OnFill(c.setStamps(phys), w, c.tick)
}

func (c *RPcache) evict(s []rpLine, w int) cache.Victim {
	v := cache.Victim{
		Valid:      true,
		Line:       s[w].tag,
		Dirty:      s[w].dirty,
		Referenced: s[w].referenced,
		Offset:     s[w].offset,
	}
	c.stats.Evictions++
	if v.Dirty {
		c.stats.Writebacks++
	}
	if c.onEv != nil {
		c.onEv(v)
	}
	s[w].valid = false
	return v
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
		base := int(c.perm[d][logical]) * c.ways
		if w := find(c.lines[base:base+c.ways], l); w >= 0 && (victim < 0 || base+w < victim) {
			victim = base + w
		}
	}
	if victim < 0 {
		return false
	}
	c.stats.Invalidates++
	phys := victim / c.ways
	c.evict(c.set(phys), victim-phys*c.ways)
	return true
}

// Flush implements cache.Cache.
func (c *RPcache) Flush() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.stats.Invalidates++
			set := c.lines[i/c.ways*c.ways : i/c.ways*c.ways+c.ways]
			c.evict(set, i%c.ways)
		}
	}
}

// Contents returns the line numbers of all valid lines.
//
//lint:ignore unused test support: the RPcache tests list resident lines, which no production path exposes
func (c *RPcache) Contents() []mem.Line {
	var out []mem.Line
	for i := range c.lines {
		if c.lines[i].valid {
			out = append(out, c.lines[i].tag)
		}
	}
	return out
}

func (c *RPcache) String() string { return fmt.Sprintf("RPcache(%v)", c.geom) }

// Occupancy returns the number of valid lines. It is a pure observer used
// by the occupancy-channel attacks as footprint ground truth.
func (c *RPcache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
