package cache

import (
	"fmt"

	"randfill/internal/mem"
)

// SetAssoc is a conventional set-associative cache with a pluggable
// replacement policy. It also serves direct-mapped (Ways=1) and fully
// associative (Sets=1) shapes, and the partitioned designs: PLcache is a
// SetAssoc whose lock bits keep a line from ever being chosen as a victim,
// and NoMo one whose RestrictWays masks reserve ways per hardware thread.
// Both constraints go through the policy's masked victim path, so lock bits
// and way masks need Ways <= 64 (CheckMaskedGeometry, which
// plcache.NewWithPolicy and RestrictWays call).
//
// Its lines live in a Slots store, set s in slots [s*ways, (s+1)*ways).
type SetAssoc struct {
	geom  Geometry
	sets  int
	ways  int
	slots Slots

	// ownerWays, when non-nil, holds each owner's allowed-ways mask (bit w
	// = way w): a fill by owner o in [0, len(ownerWays)) may only use the
	// ways in ownerWays[o], a fill by any other owner those in otherWays.
	ownerWays []uint64
	otherWays uint64
}

var _ Cache = (*SetAssoc)(nil)

// NewSetAssoc builds a cache with the given geometry and replacement
// policy (nil selects LRU). It panics on a geometry CheckGeometry rejects,
// mirroring a hardware configuration error.
func NewSetAssoc(geom Geometry, policy Policy) *SetAssoc {
	if err := CheckGeometry(geom); err != nil {
		panic(err)
	}
	sets := geom.Sets()
	return &SetAssoc{
		geom:  geom,
		sets:  sets,
		ways:  geom.Ways,
		slots: NewSlots(sets*geom.Ways, policy, nil),
	}
}

// Reset empties the cache in place and replaces its policy (nil selects
// LRU), leaving exactly the state NewSetAssoc(geometry, policy) builds:
// the store as Slots.Reset leaves it, and no way masks. The geometry and
// the line arrays are kept, so a caller that rebuilds a cache of the same
// shape allocates nothing.
func (c *SetAssoc) Reset(policy Policy) {
	c.slots.Reset(policy)
	c.ownerWays, c.otherWays = nil, 0
}

// NumLines returns the total line capacity.
func (c *SetAssoc) NumLines() int { return c.slots.NumLines() }

// Stats returns the live statistics counters.
func (c *SetAssoc) Stats() *Stats { return c.slots.Stats() }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *SetAssoc) SetEvictionObserver(fn EvictionObserver) { c.slots.SetEvictionObserver(fn) }

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

// set returns the slots of the set line l maps to.
func (c *SetAssoc) set(l mem.Line) Set { return Range(c.SetIndex(l)*c.ways, c.ways) }

// Lookup implements Cache.
func (c *SetAssoc) Lookup(l mem.Line, write bool) bool {
	set := c.set(l)
	return c.slots.Access(set, c.slots.findIn(set.lo, set.n, l), write)
}

// Probe implements Cache.
func (c *SetAssoc) Probe(l mem.Line) bool {
	set := c.set(l)
	return c.slots.findIn(set.lo, set.n, l) >= 0
}

// emptyWay returns the first empty way of set that owner may fill, or -1.
// Lock bits never restrict it.
func (c *SetAssoc) emptyWay(set Set, owner int) int {
	if c.ownerWays == nil {
		return c.slots.Empty(set)
	}
	allowed := c.allowedWays(owner)
	for w, t := range c.slots.tags[set.lo : set.lo+set.n] {
		if t == invalidTag && allowed&(1<<uint(w)) != 0 {
			return w
		}
	}
	return -1
}

// victim selects the way to evict for owner's fill into set, which has no
// empty way owner may use, when a way mask or a locked line may constrain
// it: the policy's pick among owner's ways that hold no locked line, or -1
// when there is none. With no way mask and no locked way in the set it
// takes the store's plain Victim path, which picks the same way as
// VictimMasked over every way (TestPolicyVictimMaskedRespectsMask pins
// that law).
func (c *SetAssoc) victim(set Set, owner int) int {
	allowed := ^uint64(0)
	if c.ownerWays != nil {
		allowed = c.allowedWays(owner)
	}
	if c.slots.locked > 0 {
		for w, m := range c.slots.meta[set.lo : set.lo+set.n] {
			if m&metaLocked != 0 {
				allowed &^= 1 << uint(w)
			}
		}
	}
	if allowed != ^uint64(0) {
		return c.slots.policy.VictimMasked(c.slots.view(set), allowed)
	}
	return c.slots.Victim(set)
}

// Fill implements Cache. A fill with opts.Lock sets the line's lock bit
// (PLcache's locking load), and a locked line is never chosen as a victim.
// A fill that finds neither an empty way nor an evictable one among its
// owner's ways is refused: it installs nothing, counts FillRefused and
// returns a Victim whose Refused reports true.
func (c *SetAssoc) Fill(l mem.Line, opts FillOpts) Victim {
	set := c.set(l)
	if w := c.slots.findIn(set.lo, set.n, l); w >= 0 {
		c.slots.Refresh(set, w, opts)
		return Victim{}
	}
	w := c.emptyWay(set, opts.Owner)
	var v Victim
	if w < 0 {
		if c.ownerWays == nil && c.slots.locked == 0 {
			w = c.slots.Victim(set)
		} else if w = c.victim(set, opts.Owner); w < 0 {
			c.slots.stats.FillRefused++
			return Victim{flags: victimRefused}
		}
		v = c.slots.Evict(set.lo + w)
	}
	c.slots.Install(set, w, l, opts)
	return v
}

// Invalidate implements Cache.
func (c *SetAssoc) Invalidate(l mem.Line) bool {
	set := c.set(l)
	w := c.slots.findIn(set.lo, set.n, l)
	if w < 0 {
		return false
	}
	c.slots.Invalidate(set.lo + w)
	return true
}

// Flush implements Cache.
func (c *SetAssoc) Flush() { c.slots.Flush() }

// Occupancy returns the number of valid lines (see Slots.Occupancy).
func (c *SetAssoc) Occupancy() int { return c.slots.Occupancy() }

// Contents returns the line numbers of all valid lines, for tests and for
// end-of-run profiler accounting.
func (c *SetAssoc) Contents() []mem.Line { return c.slots.Contents() }

// DrainValid reports every still-valid line to the eviction observer without
// invalidating it (see Slots.DrainValid).
func (c *SetAssoc) DrainValid() { c.slots.DrainValid() }

// IsLocked reports whether line l is present and locked.
//
//lint:ignore unused test support: the cache tests read the lock bit, which no production path exposes
func (c *SetAssoc) IsLocked(l mem.Line) bool {
	set := c.set(l)
	w := c.slots.findIn(set.lo, set.n, l)
	return w >= 0 && c.slots.meta[set.lo+w]&metaLocked != 0
}

func (c *SetAssoc) String() string {
	return fmt.Sprintf("SA(%v, %v)", c.geom, c.slots.policy)
}
