// Package scattercache implements a skewed-randomized cache in the style of
// ScatterCache (Werner et al., USENIX Security 2019): each way is a
// direct-mapped slice indexed by its own keyed hash of the line address, so
// a line's candidate slot set {(w, H(skew_w, line)) : w} is different for
// every key and congruent line groups cannot be built from the address
// alone. Replacement picks a uniformly random way among the candidates, the
// other half of the design's eviction-randomization argument.
//
// The occupancy channel is untouched by either mechanism: the attacker's
// own miss count after a victim run still reflects how many lines the
// victim displaced, regardless of where they were scattered — which is what
// the OccupancyMatrix experiment demonstrates.
package scattercache

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// ScatterCache is the skewed-randomized cache. Its lines live in a
// cache.Slots store; way w owns slots [w*sets, (w+1)*sets) and indexes them
// with skews[w]. A line's replacement set is its candidate slots, one per
// way, which are not contiguous: the store gathers their policy stamps.
type ScatterCache struct {
	geom  cache.Geometry
	sets  int
	slots cache.Slots
	skews []uint64 // per-way index-derivation keys
	// cand holds the slot of each way for the line the current operation
	// works on, hashed once per Lookup, Probe, Fill or Invalidate by
	// candidates; set is the store's Scattered set over it.
	cand []int
	set  cache.Set
}

var _ cache.Cache = (*ScatterCache)(nil)

// NewWithPolicy builds a ScatterCache whose full-candidate-set victim way
// follows pol over the line's candidate slots (nil selects the historical
// uniform-random default). The skewed indexing is untouched by the policy;
// only which way's candidate slot is evicted changes.
func NewWithPolicy(geom cache.Geometry, src *rng.Source, pol cache.Policy) *ScatterCache {
	if err := cache.CheckGeometry(geom); err != nil {
		panic(err)
	}
	if pol == nil {
		pol = cache.Random{Src: src}
	}
	c := &ScatterCache{
		geom:  geom,
		sets:  geom.Sets(),
		slots: cache.NewSlots(geom.SizeBytes/mem.LineSize, pol, nil),
		skews: make([]uint64, geom.Ways),
		cand:  make([]int, geom.Ways),
	}
	c.set = c.slots.Scattered(c.cand)
	for w := range c.skews {
		c.skews[w] = src.Uint64()
	}
	return c
}

// Index returns way-local set index of line l under the given skew key:
// a splitmix64 finalizer over l XOR skew, masked to the power-of-two set
// count. Exported so the fuzz harness can pin its algebraic properties
// (determinism, range, key sensitivity) without a cache instance.
func Index(skew uint64, l mem.Line, sets int) int {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("scattercache: set count %d not a positive power of two", sets))
	}
	z := uint64(l) ^ skew
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z & uint64(sets-1))
}

// NumLines returns the total line capacity.
func (c *ScatterCache) NumLines() int { return c.slots.NumLines() }

// Stats returns the live statistics counters.
func (c *ScatterCache) Stats() *cache.Stats { return c.slots.Stats() }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *ScatterCache) SetEvictionObserver(fn cache.EvictionObserver) {
	c.slots.SetEvictionObserver(fn)
}

// Skews returns a copy of the per-way index keys, for tests.
//
//lint:ignore unused test support: the skew tests read the per-way keys, which no production path exposes
func (c *ScatterCache) Skews() []uint64 { return append([]uint64(nil), c.skews...) }

// candidates hashes line l's candidate slot in every way (way w owns
// slots [w*sets, (w+1)*sets)) into c.cand and returns their set. A line can
// only live at one of its ways' keyed indexes, so every search is
// ways-long.
func (c *ScatterCache) candidates(l mem.Line) cache.Set {
	for w, skew := range c.skews {
		c.cand[w] = w*c.sets + Index(skew, l, c.sets)
	}
	return c.set
}

// Lookup implements cache.Cache.
func (c *ScatterCache) Lookup(l mem.Line, write bool) bool {
	set := c.candidates(l)
	return c.slots.Access(set, c.slots.Find(set, l), write)
}

// Probe implements cache.Cache.
func (c *ScatterCache) Probe(l mem.Line) bool {
	return c.slots.Find(c.candidates(l), l) >= 0
}

// Fill implements cache.Cache: install at an invalid candidate slot if one
// exists, else at the policy's victim way's candidate slot — a uniformly
// random way under the default — evicting its occupant. The random way
// draw is the design's replacement randomization: no recency state exists
// for an attacker to steer.
func (c *ScatterCache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	set := c.candidates(l)
	if w := c.slots.Find(set, l); w >= 0 {
		c.slots.Refresh(set, w, opts)
		return cache.Victim{}
	}
	var v cache.Victim
	w := c.slots.Empty(set)
	if w < 0 {
		w = c.slots.Victim(set)
		v = c.slots.Evict(c.cand[w])
	}
	c.slots.Install(set, w, l, opts)
	return v
}

// Invalidate implements cache.Cache.
func (c *ScatterCache) Invalidate(l mem.Line) bool {
	set := c.candidates(l)
	w := c.slots.Find(set, l)
	if w < 0 {
		return false
	}
	c.slots.Invalidate(c.cand[w])
	return true
}

// Flush implements cache.Cache.
func (c *ScatterCache) Flush() { c.slots.Flush() }

// Occupancy returns the number of valid lines (see cache.Slots.Occupancy).
func (c *ScatterCache) Occupancy() int { return c.slots.Occupancy() }

func (c *ScatterCache) String() string {
	return fmt.Sprintf("ScatterCache(%v)", c.geom)
}
