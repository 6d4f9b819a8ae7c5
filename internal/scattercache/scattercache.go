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

// scLine is one slot of the scattered store.
type scLine struct {
	tag        mem.Line
	valid      bool
	dirty      bool
	referenced bool
	owner      int
	offset     int8
}

// ScatterCache is the skewed-randomized cache. Way w owns the slot range
// lines[w*sets : (w+1)*sets] and indexes it with skews[w].
type ScatterCache struct {
	geom  cache.Geometry
	sets  int
	ways  int
	lines []scLine
	skews []uint64 // per-way index-derivation keys
	// stamps is the replacement-policy state, one word per slot. A line's
	// policy "set" is its ways-long candidate slot vector, which is not
	// contiguous (each way hashes to its own slot), so the policy operates
	// on scratch, a gathered copy written back after mutation.
	stamps  []uint64
	scratch []uint64
	// cand holds the flat candidate slot of each way for the line the
	// current operation works on, hashed once per Lookup, Probe, Fill or
	// Invalidate by candidates; find, touch and victimWay read it.
	cand   []int
	policy cache.Policy
	// noState devirtualizes the uniform-random default: Random keeps no
	// per-access state, so the gather/scatter and policy dispatch are
	// skipped and the hot paths stay as lean as before parameterization.
	// rndSrc is the Random policy's source, drawn directly (no interface
	// dispatch) when noState is set.
	noState bool
	rndSrc  *rng.Source
	tick    uint64
	src     *rng.Source
	stats   cache.Stats
	onEv    cache.EvictionObserver
}

var _ cache.Cache = (*ScatterCache)(nil)

// NewWithPolicy builds a ScatterCache whose full-candidate-set victim way
// follows pol over the line's gathered candidate slots (nil selects the
// historical uniform-random default). The skewed indexing is untouched by
// the policy; only which way's candidate slot is evicted changes.
func NewWithPolicy(geom cache.Geometry, src *rng.Source, pol cache.Policy) *ScatterCache {
	lines := geom.SizeBytes / mem.LineSize
	if geom.SizeBytes <= 0 || geom.SizeBytes%mem.LineSize != 0 {
		panic(fmt.Sprintf("scattercache: size %d not a positive multiple of line size", geom.SizeBytes))
	}
	if geom.Ways <= 0 || lines%geom.Ways != 0 {
		panic(fmt.Sprintf("scattercache: %d lines not divisible into %d ways", lines, geom.Ways))
	}
	sets := lines / geom.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("scattercache: set count %d not a power of two", sets))
	}
	if pol == nil {
		pol = cache.Random{Src: src}
	}
	if err := cache.PolicyValid(pol); err != nil {
		panic(err)
	}
	c := &ScatterCache{
		geom:    geom,
		sets:    sets,
		ways:    geom.Ways,
		lines:   make([]scLine, lines),
		skews:   make([]uint64, geom.Ways),
		stamps:  make([]uint64, lines),
		scratch: make([]uint64, geom.Ways),
		cand:    make([]int, geom.Ways),
		policy:  pol,
		src:     src,
	}
	if r, ok := pol.(cache.Random); ok {
		c.noState, c.rndSrc = true, r.Src
	}
	for w := range c.skews {
		c.skews[w] = src.Uint64()
	}
	return c
}

// touch gathers the candidate stamps of the line whose slots are cand,
// applies the policy's hit or fill event to way w, and scatters the
// (possibly mutated) stamps back. Callers gate on !noState so the default
// random policy pays neither the call nor the way division at the call site.
func (c *ScatterCache) touch(cand []int, w int, fill bool) {
	for i, p := range cand {
		c.scratch[i] = c.stamps[p]
	}
	if fill {
		c.policy.OnFill(c.scratch, w, c.tick)
	} else {
		c.policy.OnHit(c.scratch, w, c.tick)
	}
	for i, p := range cand {
		c.stamps[p] = c.scratch[i]
	}
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
func (c *ScatterCache) NumLines() int { return len(c.lines) }

// Stats returns the live statistics counters.
func (c *ScatterCache) Stats() *cache.Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *ScatterCache) SetEvictionObserver(fn cache.EvictionObserver) { c.onEv = fn }

// Skews returns a copy of the per-way index keys, for tests.
//
//lint:ignore unused test support: the skew tests read the per-way keys, which no production path exposes
func (c *ScatterCache) Skews() []uint64 { return append([]uint64(nil), c.skews...) }

// candidates hashes line l's flat candidate slot in every way (way w owns
// lines[w*sets : (w+1)*sets]) into c.cand and returns it.
func (c *ScatterCache) candidates(l mem.Line) []int {
	for w, skew := range c.skews {
		c.cand[w] = w*c.sets + Index(skew, l, c.sets)
	}
	return c.cand
}

// find returns the flat slot index holding line l among its candidate slots
// cand, or -1. A line can only live at one of its ways' keyed indexes, so
// the scan is ways-long.
func (c *ScatterCache) find(cand []int, l mem.Line) int {
	for _, p := range cand {
		if c.lines[p].valid && c.lines[p].tag == l {
			return p
		}
	}
	return -1
}

// Lookup implements cache.Cache.
func (c *ScatterCache) Lookup(l mem.Line, write bool) bool {
	cand := c.candidates(l)
	p := c.find(cand, l)
	if p < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	c.lines[p].referenced = true
	if !c.noState {
		c.touch(cand, p/c.sets, false)
	}
	if write {
		c.lines[p].dirty = true
	}
	return true
}

// Probe implements cache.Cache.
func (c *ScatterCache) Probe(l mem.Line) bool { return c.find(c.candidates(l), l) >= 0 }

// Fill implements cache.Cache: install at an invalid candidate slot if one
// exists, else at a uniformly random way's candidate slot, evicting its
// occupant. The random way draw is the design's replacement randomization —
// no recency state exists for an attacker to steer.
func (c *ScatterCache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	c.tick++
	cand := c.candidates(l)
	if p := c.find(cand, l); p >= 0 {
		c.lines[p].dirty = c.lines[p].dirty || opts.Dirty
		if !c.noState {
			c.touch(cand, p/c.sets, true)
		}
		return cache.Victim{}
	}
	c.stats.Fills++
	p := -1
	for _, q := range cand {
		if !c.lines[q].valid {
			p = q
			break
		}
	}
	var v cache.Victim
	if p < 0 {
		p = cand[c.victimWay(cand)]
		v = c.evict(p)
	}
	c.lines[p] = scLine{
		tag:    l,
		valid:  true,
		dirty:  opts.Dirty,
		owner:  opts.Owner,
		offset: opts.Offset,
	}
	if !c.noState {
		c.touch(cand, p/c.sets, true)
	}
	return v
}

// victimWay picks the way whose candidate slot (of cand) is evicted when
// every candidate is valid. The uniform-random default draws a way directly
// (the candidate stamps carry no information for it — scratch is passed
// ungathered); stateful policies see the gathered candidate stamps and any
// mutation (RRIP aging) is scattered back.
func (c *ScatterCache) victimWay(cand []int) int {
	if c.noState {
		return c.rndSrc.Intn(c.ways) // == Random.Victim over the candidate vector
	}
	for i, p := range cand {
		c.scratch[i] = c.stamps[p]
	}
	w := c.policy.Victim(c.scratch)
	for i, p := range cand {
		c.stamps[p] = c.scratch[i]
	}
	return w
}

// evict clears slot p and returns its victim record, after notifying the
// eviction observer and bumping counters.
func (c *ScatterCache) evict(p int) cache.Victim {
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
	c.lines[p].valid = false
	return v
}

// Invalidate implements cache.Cache.
func (c *ScatterCache) Invalidate(l mem.Line) bool {
	p := c.find(c.candidates(l), l)
	if p < 0 {
		return false
	}
	c.stats.Invalidates++
	c.evict(p)
	return true
}

// Flush implements cache.Cache.
func (c *ScatterCache) Flush() {
	for p := range c.lines {
		if c.lines[p].valid {
			c.stats.Invalidates++
			c.evict(p)
		}
	}
}

// Occupancy returns the number of valid lines. It is a pure observer used
// by the occupancy-channel attacks as footprint ground truth.
func (c *ScatterCache) Occupancy() int {
	n := 0
	for p := range c.lines {
		if c.lines[p].valid {
			n++
		}
	}
	return n
}

func (c *ScatterCache) String() string {
	return fmt.Sprintf("ScatterCache(%v)", c.geom)
}
