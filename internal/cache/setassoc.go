package cache

import (
	"fmt"

	"randfill/internal/mem"
)

// Per-way metadata bits (see the SetAssoc field comments). Valid is not a
// bit: a way is valid iff its tag is not invalidTag.
const (
	metaDirty uint8 = 1 << iota
	metaReferenced
	metaLocked
)

// invalidTag marks an empty way in the tags array. Real line numbers are
// byte addresses shifted right by mem.LineShift, so the all-ones value can
// never collide with a reachable line; using a sentinel instead of a valid
// bit lets the hot probe compare tags alone, with no second flag load and no
// way for a stale tag to alias a probed line (see DESIGN.md §12).
const invalidTag = ^mem.Line(0)

// SetAssoc is a conventional set-associative cache with a pluggable
// replacement policy. It also serves direct-mapped (Ways=1) and fully
// associative (Sets=1) shapes.
//
// Per-way state is struct-of-arrays: the tags array is the only state the
// hit fast path touches (one contiguous cache line per 8 ways), the meta
// array carries the dirty/referenced/locked bits, and replacement-policy
// state lives in stamps, a parallel array the policy operates on as a
// contiguous per-set subslice (the stamp double-copy used to dominate the
// Lookup profile; see DESIGN.md §7, §12).
type SetAssoc struct {
	geom    Geometry
	sets    int
	ways    int
	tags    []mem.Line // sets*ways, row-major by set; invalidTag = empty way
	meta    []uint8    // dirty/referenced/locked bits, parallel to tags
	owners  []int      // owning process ids, parallel to tags
	offsets []int8     // fill-offset tags, parallel to tags
	stamps  []uint64   // replacement-policy state, parallel to tags
	policy  Policy
	tick    uint64
	stats   Stats
	onEv    EvictionObserver

	// isLRU devirtualizes the by-far-most-common policy on the touch and
	// victim hot paths (identical results, no interface call).
	isLRU bool
}

var _ Cache = (*SetAssoc)(nil)

// NewSetAssoc builds a cache with the given geometry and replacement
// policy. It panics on invalid geometry (sizes must be line-multiple,
// power-of-two set counts), mirroring a hardware configuration error.
func NewSetAssoc(geom Geometry, policy Policy) *SetAssoc {
	geom.check()
	if policy == nil {
		policy = LRU{}
	}
	if err := PolicyValid(policy); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	_, isLRU := policy.(LRU)
	n := sets * geom.Ways
	tags := make([]mem.Line, n)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &SetAssoc{
		geom:    geom,
		sets:    sets,
		ways:    geom.Ways,
		tags:    tags,
		meta:    make([]uint8, n),
		owners:  make([]int, n),
		offsets: make([]int8, n),
		stamps:  make([]uint64, n),
		policy:  policy,
		isLRU:   isLRU,
	}
}

// NumLines returns the total line capacity.
func (c *SetAssoc) NumLines() int { return len(c.tags) }

// Stats returns the live statistics counters.
func (c *SetAssoc) Stats() *Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *SetAssoc) SetEvictionObserver(fn EvictionObserver) { c.onEv = fn }

// SetIndex returns the set index the line maps to.
func (c *SetAssoc) SetIndex(l mem.Line) int { return int(uint64(l) & uint64(c.sets-1)) }

// base returns the index of set idx's first way in the parallel arrays.
func (c *SetAssoc) base(idx int) int { return idx * c.ways }

// find returns the way holding line l in the set starting at base, or -1.
// Only the tags array is consulted: empty ways hold invalidTag, which no
// reachable line number can equal.
func (c *SetAssoc) find(base int, l mem.Line) int {
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == l {
			return w
		}
	}
	return -1
}

// TryHit performs Lookup's hit path iff line l is present: replacement
// state, reference/dirty bits and the hit counter update exactly as Lookup's
// hit path does, and TryHit returns true. On a miss it changes nothing — not
// even the miss counter — and returns false, so batch replay loops can probe
// the common all-hits case first and fall back to the full per-access path
// (which re-runs the lookup and does the miss accounting) only when needed.
// Lookup itself is TryHit plus the miss accounting, keeping the two paths
// identical by construction.
func (c *SetAssoc) TryHit(l mem.Line, write bool) bool {
	base := int(uint64(l)&uint64(c.sets-1)) * c.ways
	tags := c.tags[base : base+c.ways]
	w := -1
	for i := range tags {
		if tags[i] == l {
			w = i
			break
		}
	}
	if w < 0 {
		return false
	}
	c.stats.Hits++
	c.tick++
	m := c.meta[base+w] | metaReferenced
	if write {
		m |= metaDirty
	}
	c.meta[base+w] = m
	c.touch(base, w, false)
	return true
}

// Lookup implements Cache.
func (c *SetAssoc) Lookup(l mem.Line, write bool) bool {
	if c.TryHit(l, write) {
		return true
	}
	c.stats.Misses++
	return false
}

// Probe implements Cache.
func (c *SetAssoc) Probe(l mem.Line) bool {
	return c.find(c.base(c.SetIndex(l)), l) >= 0
}

// touch updates the replacement stamps of the set starting at base after an
// access to way w. The policy operates on the stamps array directly; hits
// and fills are distinct policy events (RRIP inserts distant but promotes
// on hit, FIFO stamps only fills).
func (c *SetAssoc) touch(base, w int, fill bool) {
	if c.isLRU {
		c.stamps[base+w] = c.tick
		return
	}
	if fill {
		c.policy.OnFill(c.stamps[base:base+c.ways], w, c.tick)
	} else {
		c.policy.OnHit(c.stamps[base:base+c.ways], w, c.tick)
	}
}

// victim selects the way to evict from the full set starting at base.
func (c *SetAssoc) victim(base int) int {
	stamps := c.stamps[base : base+c.ways]
	if c.isLRU {
		best := 0
		for w := 1; w < len(stamps); w++ {
			if stamps[w] < stamps[best] {
				best = w
			}
		}
		return best
	}
	return c.policy.Victim(stamps)
}

// Fill implements Cache.
func (c *SetAssoc) Fill(l mem.Line, opts FillOpts) Victim {
	base := c.base(c.SetIndex(l))
	c.tick++
	if w := c.find(base, l); w >= 0 {
		// Refreshing an already-present line: update metadata only.
		if opts.Dirty {
			c.meta[base+w] |= metaDirty
		}
		if opts.Lock {
			c.meta[base+w] |= metaLocked
			c.owners[base+w] = opts.Owner
		}
		c.touch(base, w, true)
		return Victim{}
	}
	c.stats.Fills++
	// Prefer an invalid way.
	w := -1
	for i := 0; i < c.ways; i++ {
		if c.tags[base+i] == invalidTag {
			w = i
			break
		}
	}
	var v Victim
	if w < 0 {
		w = c.victim(base)
		v = c.evict(base, w)
	}
	i := base + w
	c.tags[i] = l
	m := uint8(0)
	if opts.Dirty {
		m |= metaDirty
	}
	if opts.Lock {
		m |= metaLocked
	}
	c.meta[i] = m
	c.owners[i] = opts.Owner
	c.offsets[i] = opts.Offset
	// The way's stamp word is deliberately NOT cleared here: the fill event
	// below rewrites whatever the policy needs, and for PLRU the per-set
	// stamp words hold shared tree bits that must survive installs.
	c.touch(base, w, true)
	return v
}

// evict clears way w of the set starting at base and returns its victim
// record, after notifying the eviction observer and bumping counters.
func (c *SetAssoc) evict(base, w int) Victim {
	i := base + w
	v := Victim{
		Valid:      true,
		Line:       c.tags[i],
		Dirty:      c.meta[i]&metaDirty != 0,
		Referenced: c.meta[i]&metaReferenced != 0,
		Offset:     c.offsets[i],
	}
	c.stats.Evictions++
	if v.Dirty {
		c.stats.Writebacks++
	}
	if c.onEv != nil {
		c.onEv(v)
	}
	c.tags[i] = invalidTag
	return v
}

// Invalidate implements Cache.
func (c *SetAssoc) Invalidate(l mem.Line) bool {
	base := c.base(c.SetIndex(l))
	w := c.find(base, l)
	if w < 0 {
		return false
	}
	c.stats.Invalidates++
	c.evict(base, w)
	return true
}

// Flush implements Cache.
func (c *SetAssoc) Flush() {
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			c.stats.Invalidates++
			c.evict(i/c.ways*c.ways, i%c.ways)
		}
	}
}

// Occupancy returns the number of valid lines. It is a pure observer (no
// replacement-state or counter updates): the occupancy-channel attacks read
// it as ground truth for the victim footprint an attacker estimates.
func (c *SetAssoc) Occupancy() int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			n++
		}
	}
	return n
}

// Contents returns the line numbers of all valid lines, for tests and for
// end-of-run profiler accounting.
func (c *SetAssoc) Contents() []mem.Line {
	var out []mem.Line
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			out = append(out, c.tags[i])
		}
	}
	return out
}

// DrainValid reports every still-valid line to the eviction observer without
// invalidating it. The spatial-locality profiler calls it at end of run so
// never-evicted lines are counted in the Eff(d) denominator.
func (c *SetAssoc) DrainValid() {
	if c.onEv == nil {
		return
	}
	for i := range c.tags {
		if c.tags[i] != invalidTag {
			c.onEv(Victim{
				Valid:      true,
				Line:       c.tags[i],
				Dirty:      c.meta[i]&metaDirty != 0,
				Referenced: c.meta[i]&metaReferenced != 0,
				Offset:     c.offsets[i],
			})
		}
	}
}

// IsLocked reports whether line l is present and locked.
//
//lint:ignore unused test support: the cache tests read the lock bit, which no production path exposes
func (c *SetAssoc) IsLocked(l mem.Line) bool {
	base := c.base(c.SetIndex(l))
	w := c.find(base, l)
	return w >= 0 && c.meta[base+w]&metaLocked != 0
}

// Owner returns the owner id of line l, or NoOwner if absent or unowned.
//
//lint:ignore unused test support: the cache tests read the owner id, which no production path exposes
func (c *SetAssoc) Owner(l mem.Line) int {
	base := c.base(c.SetIndex(l))
	if w := c.find(base, l); w >= 0 {
		return c.owners[base+w]
	}
	return NoOwner
}

func (c *SetAssoc) String() string {
	return fmt.Sprintf("SA(%v, %v)", c.geom, c.policy)
}
