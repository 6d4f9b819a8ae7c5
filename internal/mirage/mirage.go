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

// mgLine is one slot of the fully-associative store.
type mgLine struct {
	tag        mem.Line
	valid      bool
	dirty      bool
	referenced bool
	offset     int8
}

// Mirage is the fully-associative random-global-eviction cache.
type Mirage struct {
	lines []mgLine
	// index maps resident tags to slots; it is only ever looked up by
	// key (never iterated), so map order cannot influence behaviour.
	index map[mem.Line]int32
	// free lists the invalid slots; placement draws uniformly from it
	// with swap-remove, so free-slot choice is address-independent too.
	free []int32
	// stamps is the replacement-policy state, one word per slot; the
	// policy treats the whole store as one fully-associative set.
	stamps []uint64
	policy cache.Policy
	// noState devirtualizes the uniform-random default: Random keeps no
	// per-access state, so OnHit/OnFill dispatch is skipped entirely.
	noState bool
	tick    uint64
	src     *rng.Source
	stats   cache.Stats
	onEv    cache.EvictionObserver
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
	if err := cache.PolicyValid(pol); err != nil {
		panic(err)
	}
	c := &Mirage{
		lines:  make([]mgLine, n),
		index:  make(map[mem.Line]int32, n),
		free:   make([]int32, n),
		stamps: make([]uint64, n),
		policy: pol,
		src:    src,
	}
	_, c.noState = pol.(cache.Random)
	for i := range c.free {
		c.free[i] = int32(i)
	}
	return c
}

// NumLines returns the total line capacity.
func (c *Mirage) NumLines() int { return len(c.lines) }

// Stats returns the live statistics counters.
func (c *Mirage) Stats() *cache.Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *Mirage) SetEvictionObserver(fn cache.EvictionObserver) { c.onEv = fn }

// Lookup implements cache.Cache.
func (c *Mirage) Lookup(l mem.Line, write bool) bool {
	p, ok := c.index[l]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	c.lines[p].referenced = true
	if !c.noState {
		c.policy.OnHit(c.stamps, int(p), c.tick)
	}
	if write {
		c.lines[p].dirty = true
	}
	return true
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
	c.tick++
	if p, ok := c.index[l]; ok {
		c.lines[p].dirty = c.lines[p].dirty || opts.Dirty
		if !c.noState {
			c.policy.OnFill(c.stamps, int(p), c.tick)
		}
		return cache.Victim{}
	}
	c.stats.Fills++
	var v cache.Victim
	var p int32
	if len(c.free) > 0 {
		j := c.src.Intn(len(c.free))
		p = c.free[j]
		c.free[j] = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		p = int32(c.policy.Victim(c.stamps))
		v = c.evict(p)
	}
	c.lines[p] = mgLine{
		tag:    l,
		valid:  true,
		dirty:  opts.Dirty,
		offset: opts.Offset,
	}
	if !c.noState {
		c.policy.OnFill(c.stamps, int(p), c.tick)
	}
	c.index[l] = p
	return v
}

// evict clears slot p and returns its victim record, after notifying the
// eviction observer and bumping counters. The slot is NOT returned to the
// free list: callers that leave it empty (Invalidate, Flush) do that.
func (c *Mirage) evict(p int32) cache.Victim {
	v := cache.Victim{
		Valid:      true,
		Line:       c.lines[p].tag,
		Dirty:      c.lines[p].dirty,
		Referenced: c.lines[p].referenced,
		Offset:     c.lines[p].offset,
	}
	c.stats.Evictions++
	if v.Dirty {
		c.stats.Writebacks++
	}
	if c.onEv != nil {
		c.onEv(v)
	}
	delete(c.index, c.lines[p].tag)
	c.lines[p].valid = false
	return v
}

// Invalidate implements cache.Cache.
func (c *Mirage) Invalidate(l mem.Line) bool {
	p, ok := c.index[l]
	if !ok {
		return false
	}
	c.stats.Invalidates++
	c.evict(p)
	c.free = append(c.free, p)
	return true
}

// Flush implements cache.Cache.
func (c *Mirage) Flush() {
	for p := range c.lines {
		if c.lines[p].valid {
			c.stats.Invalidates++
			c.evict(int32(p))
			c.free = append(c.free, int32(p))
		}
	}
}

// Occupancy returns the number of resident lines. It is a pure observer
// used by the occupancy-channel attacks as footprint ground truth.
func (c *Mirage) Occupancy() int { return len(c.index) }

func (c *Mirage) String() string {
	return fmt.Sprintf("Mirage(%d lines, fully associative)", len(c.lines))
}
