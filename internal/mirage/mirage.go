// Package mirage implements a fully-associative randomized cache in the
// style of MIRAGE (Saileshwar & Qureshi, USENIX Security 2021): the data
// store has no set structure visible to the attacker, and when it is full
// the replacement victim is drawn uniformly from the *entire* store — the
// "global random eviction" that removes set-conflict evictions entirely, so
// an eviction carries no information about which address caused it.
//
// The model keeps MIRAGE's security-relevant behaviour (full associativity,
// global random eviction, random free-slot placement) and drops the
// tag-to-data indirection machinery that exists only to make the hardware
// realizable. As the occupancy battery shows, the total-footprint channel
// survives even this idealized form: eviction randomization hides *which*
// line was displaced, never *how many*.
package mirage

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// Mirage is the fully-associative random-global-eviction cache. Its lines
// live in a cache.Slots store that the policy treats as one set, all.
type Mirage struct {
	slots cache.Slots
	all   cache.Set
	// index maps resident tags to slots; it is only ever looked up by
	// key (never iterated), so map order cannot influence behaviour.
	index map[mem.Line]int32
	// free lists the invalid slots; placement draws uniformly from it
	// with swap-remove, so free-slot choice is address-independent too.
	free []int32
	src  *rng.Source
}

var _ cache.Cache = (*Mirage)(nil)

// Check returns nil if NewWithPolicy builds a Mirage cache over geom, and
// otherwise an error. The store is fully associative, so only the capacity
// matters: it must pass cache.CheckGeometry as one set of all its lines.
func Check(geom cache.Geometry) error {
	return cache.CheckGeometry(cache.Geometry{SizeBytes: geom.SizeBytes, Ways: geom.SizeBytes / mem.LineSize})
}

// NewWithPolicy builds a Mirage cache whose full-store eviction victim
// follows pol over all slots (nil selects the historical global-random
// default). Free-slot placement stays a uniform draw regardless of policy —
// placement randomization is the design's security mechanism, the victim
// pick is the replacement decision the Peters et al. axis varies.
// It panics on a geometry Check rejects.
func NewWithPolicy(geom cache.Geometry, src *rng.Source, pol cache.Policy) *Mirage {
	if err := Check(geom); err != nil {
		panic(err)
	}
	n := geom.SizeBytes / mem.LineSize
	if src == nil {
		panic("mirage: nil rng source")
	}
	if pol == nil {
		pol = cache.Random{Src: src}
	}
	c := &Mirage{
		all:   cache.Range(0, n),
		index: make(map[mem.Line]int32, n),
		free:  make([]int32, n),
		src:   src,
	}
	c.slots = cache.NewSlots(n, pol, c.unmap)
	for i := range c.free {
		c.free[i] = int32(i)
	}
	return c
}

// NumLines returns the total line capacity.
func (c *Mirage) NumLines() int { return c.slots.NumLines() }

// Stats returns the live statistics counters.
func (c *Mirage) Stats() *cache.Stats { return c.slots.Stats() }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *Mirage) SetEvictionObserver(fn cache.EvictionObserver) { c.slots.SetEvictionObserver(fn) }

// locate returns the slot holding l, or -1.
func (c *Mirage) locate(l mem.Line) int {
	if p, ok := c.index[l]; ok {
		return int(p)
	}
	return -1
}

// Lookup implements cache.Cache.
func (c *Mirage) Lookup(l mem.Line, write bool) bool {
	return c.slots.Access(c.all, c.locate(l), write)
}

// Probe implements cache.Cache.
func (c *Mirage) Probe(l mem.Line) bool {
	_, ok := c.index[l]
	return ok
}

// Fill implements cache.Cache: place into a uniformly random free slot, or
// — when the store is full — evict a victim drawn uniformly from all
// resident lines. The victim can therefore never be the line being
// installed (it is not resident), and is always a valid line.
func (c *Mirage) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	if p := c.locate(l); p >= 0 {
		c.slots.Refresh(c.all, p, opts)
		return cache.Victim{}
	}
	var v cache.Victim
	last := len(c.free) - 1
	if last < 0 {
		// A full store: the eviction's teardown frees the victim's slot,
		// and the new line takes it without a placement draw.
		v = c.slots.Evict(c.slots.Victim(c.all))
		last = 0
	} else {
		j := c.src.Intn(len(c.free))
		c.free[j], c.free[last] = c.free[last], c.free[j]
	}
	p := c.free[last]
	c.free = c.free[:last]
	c.slots.Install(c.all, int(p), l, opts)
	c.index[l] = p
	return v
}

// unmap is the store's teardown: slot p is about to lose line l, so the
// tag map forgets l and p joins the free list.
func (c *Mirage) unmap(p int, l mem.Line) {
	delete(c.index, l)
	c.free = append(c.free, int32(p))
}

// Invalidate implements cache.Cache.
func (c *Mirage) Invalidate(l mem.Line) bool {
	p := c.locate(l)
	if p < 0 {
		return false
	}
	c.slots.Invalidate(p)
	return true
}

// Flush implements cache.Cache.
func (c *Mirage) Flush() { c.slots.Flush() }

// Occupancy returns the number of resident lines (see
// cache.Slots.Occupancy).
func (c *Mirage) Occupancy() int { return c.slots.Occupancy() }

func (c *Mirage) String() string {
	return fmt.Sprintf("Mirage(%d lines, fully associative)", c.slots.NumLines())
}
