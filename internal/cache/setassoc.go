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
// associative (Sets=1) shapes, and the partitioned designs: PLcache is a
// SetAssoc whose lock bits keep a line from ever being chosen as a victim,
// and NoMo one whose RestrictWays masks reserve ways per hardware thread.
// Both constraints go through the policy's masked victim path, so lock bits
// and way masks need Ways <= 64 (CheckMaskedGeometry, which
// plcache.NewWithPolicy and RestrictWays call).
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
	offsets []int8     // fill-offset tags, parallel to tags
	stamps  []uint64   // replacement-policy state, parallel to tags
	policy  Policy
	tick    uint64
	stats   Stats
	onEv    EvictionObserver

	// locked counts the valid lines whose lock bit is set. While it is
	// zero no set holds a locked way, and victim skips the lock scan.
	locked int
	// ownerWays, when non-nil, holds each owner's allowed-ways mask (bit w
	// = way w): a fill by owner o in [0, len(ownerWays)) may only use the
	// ways in ownerWays[o], a fill by any other owner those in otherWays.
	ownerWays []uint64
	otherWays uint64

	// isLRU devirtualizes the by-far-most-common policy on the touch and
	// victim hot paths (identical results, no interface call).
	isLRU bool
}

var _ Cache = (*SetAssoc)(nil)

// NewSetAssoc builds a cache with the given geometry and replacement
// policy. It panics on a geometry CheckGeometry rejects, mirroring a
// hardware configuration error.
// A new cache is a Reset of freshly allocated arrays.
func NewSetAssoc(geom Geometry, policy Policy) *SetAssoc {
	if err := CheckGeometry(geom); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	n := sets * geom.Ways
	c := &SetAssoc{
		geom:    geom,
		sets:    sets,
		ways:    geom.Ways,
		tags:    make([]mem.Line, n),
		meta:    make([]uint8, n),
		offsets: make([]int8, n),
		stamps:  make([]uint64, n),
	}
	c.Reset(policy)
	return c
}

// Reset empties the cache in place and replaces its policy (nil selects
// LRU), leaving exactly the state NewSetAssoc(geometry, policy) builds:
// every way invalid, the metadata, offset and stamp words zero, the tick,
// statistics and lock count zero, and no way masks or eviction observer.
// The geometry and the line arrays are kept, so a caller that rebuilds a
// cache of the same shape allocates nothing.
func (c *SetAssoc) Reset(policy Policy) {
	if policy == nil {
		policy = LRU{}
	}
	if err := PolicyValid(policy); err != nil {
		panic(err)
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	clear(c.meta)
	clear(c.offsets)
	clear(c.stamps)
	_, isLRU := policy.(LRU)
	*c = SetAssoc{
		geom:    c.geom,
		sets:    c.sets,
		ways:    c.ways,
		tags:    c.tags,
		meta:    c.meta,
		offsets: c.offsets,
		stamps:  c.stamps,
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

// RestrictWays limits the ways each owner's fills may use (see the
// ownerWays field): perOwner[o] for owner o, other for every owner outside
// perOwner. Lookups still hit in any way. It panics on caches of more than
// 64 ways.
func (c *SetAssoc) RestrictWays(perOwner []uint64, other uint64) {
	if err := CheckMaskedGeometry(c.geom); err != nil {
		panic(err)
	}
	c.ownerWays = make([]uint64, len(perOwner)) // non-nil even when empty
	copy(c.ownerWays, perOwner)
	c.otherWays = other
}

// allowedWays returns the ways owner's fills may use; call it only when
// ownerWays is set.
func (c *SetAssoc) allowedWays(owner int) uint64 {
	if owner >= 0 && owner < len(c.ownerWays) {
		return c.ownerWays[owner]
	}
	return c.otherWays
}

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
// even the miss counter — and returns false. Lookup is TryHit plus the miss
// count, so the two hit paths are identical by construction.
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

// emptyWay returns the first empty way of the set starting at base that
// owner may fill, or -1. Lock bits never restrict it.
func (c *SetAssoc) emptyWay(base, owner int) int {
	tags := c.tags[base : base+c.ways]
	if c.ownerWays == nil {
		for w := range tags {
			if tags[w] == invalidTag {
				return w
			}
		}
		return -1
	}
	allowed := c.allowedWays(owner)
	for w := range tags {
		if tags[w] == invalidTag && allowed&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// victim selects the way to evict for owner's fill into the set starting at
// base, which has no empty way owner may use: the policy's pick among
// owner's ways that hold no locked line, or -1 when there is none. With no
// way mask and no locked way in the set it takes the plain Victim path,
// which picks the same way as VictimMasked over every way
// (TestPolicyVictimMaskedRespectsMask pins that law).
func (c *SetAssoc) victim(base, owner int) int {
	stamps := c.stamps[base : base+c.ways]
	allowed := ^uint64(0)
	if c.ownerWays != nil {
		allowed = c.allowedWays(owner)
	}
	if c.locked > 0 {
		for w, m := range c.meta[base : base+c.ways] {
			if m&metaLocked != 0 {
				allowed &^= 1 << uint(w)
			}
		}
	}
	if allowed != ^uint64(0) {
		return c.policy.VictimMasked(stamps, allowed)
	}
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

// Fill implements Cache. A fill with opts.Lock sets the line's lock bit
// (PLcache's locking load), and a locked line is never chosen as a victim.
// A fill that finds neither an empty way nor an evictable one among its
// owner's ways is refused: it installs nothing, counts FillRefused and
// returns Victim{Refused: true}.
func (c *SetAssoc) Fill(l mem.Line, opts FillOpts) Victim {
	base := c.base(c.SetIndex(l))
	c.tick++
	if w := c.find(base, l); w >= 0 {
		// Refreshing an already-present line: update metadata only.
		if opts.Dirty {
			c.meta[base+w] |= metaDirty
		}
		if opts.Lock {
			if c.meta[base+w]&metaLocked == 0 {
				c.locked++
			}
			c.meta[base+w] |= metaLocked
		}
		c.touch(base, w, true)
		return Victim{}
	}
	w := c.emptyWay(base, opts.Owner)
	var v Victim
	if w < 0 {
		if w = c.victim(base, opts.Owner); w < 0 {
			c.stats.FillRefused++
			return Victim{Refused: true}
		}
		v = c.evict(base, w)
	}
	c.stats.Fills++
	i := base + w
	c.tags[i] = l
	m := uint8(0)
	if opts.Dirty {
		m |= metaDirty
	}
	if opts.Lock {
		m |= metaLocked
		c.locked++
	}
	c.meta[i] = m
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
	if c.meta[i]&metaLocked != 0 {
		c.locked--
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

func (c *SetAssoc) String() string {
	return fmt.Sprintf("SA(%v, %v)", c.geom, c.policy)
}
