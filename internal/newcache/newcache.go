// Package newcache implements Newcache (Wang & Lee, MICRO 2008; Liu & Lee,
// HASP 2013): a randomization-based secure cache organized as a logical
// direct-mapped (LDM) cache whose index space is larger than the physical
// cache (extra index bits k), with a remapping table providing the
// logical-to-physical indirection and randomized replacement de-correlating
// cache contention from memory addresses.
//
// The model implements the two miss classes of the LDM design:
//
//   - index miss: the logical index has no valid mapping. The incoming line
//     is placed in a uniformly random physical line (the SecRAND behaviour),
//     whose previous logical mapping is torn down.
//   - tag miss: the logical index maps to a physical line holding a
//     different tag. The conflicting physical line itself is replaced
//     (direct-mapped semantics within the logical cache).
//
// Because the logical index space is 2^k times larger than the physical
// cache, index misses dominate and replacement is effectively random, which
// is the property the paper relies on ("completely cleaning Newcache is
// harder than cleaning the SA cache, due to Newcache's random replacement
// algorithm", Section V.A). The random-fill engine in internal/core layers
// on top of this type exactly as it does on the SA cache.
package newcache

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

type ncLine struct {
	tag        mem.Line
	lidx       int // logical index currently mapped to this physical line
	domain     int // trust domain whose table maps this line
	valid      bool
	dirty      bool
	referenced bool
	offset     int8
}

// MaxDomains bounds the number of protected trust domains with private
// remapping tables (Wang & Lee: "Protected processes have different
// remapping tables, while all unprotected processes share the same
// remapping table"). Domain 0 is the shared unprotected table.
const MaxDomains = 4

// Newcache is a logical direct-mapped secure cache with a remapping table.
type Newcache struct {
	physLines  int
	extraBits  int
	logicalCap int
	lidxMask   uint64
	// remaps[d] is trust domain d's remapping table: logical index ->
	// physical line, or -1.
	remaps [MaxDomains][]int32
	active int
	lines  []ncLine
	// stamps is the replacement-policy state, one word per physical line;
	// the policy treats the whole store as a single physLines-way set
	// (the LDM store has no set structure of its own).
	stamps []uint64
	policy cache.Policy
	// noState devirtualizes the uniform-random default: Random keeps no
	// per-access state, so OnHit/OnFill dispatch is skipped entirely and
	// the hit path stays as lean as before policy parameterization.
	noState bool
	tick    uint64
	src     *rng.Source
	stats   cache.Stats
	onEv    cache.EvictionObserver
}

var _ cache.Cache = (*Newcache)(nil)

// Check returns nil if NewWithPolicy builds a Newcache of sizeBytes with
// extraBits extra index bits, and otherwise an error. The physical store is
// a direct-mapped array, so the size must pass cache.CheckGeometry with one
// way (whatever associativity a caller asks for plays no part), and
// extraBits must lie in [0, 16].
func Check(sizeBytes, extraBits int) error {
	if err := cache.CheckGeometry(cache.Geometry{SizeBytes: sizeBytes, Ways: 1}); err != nil {
		return err
	}
	if extraBits < 0 || extraBits > 16 {
		return fmt.Errorf("newcache: bad extra bits %d", extraBits)
	}
	return nil
}

// DefaultExtraBits is the number of extra index bits k. The Newcache paper
// finds k=4 sufficient to make conflict misses rare.
const DefaultExtraBits = 4

// New builds a Newcache with sizeBytes capacity and k extra index bits,
// drawing replacement randomness from src.
func New(sizeBytes, extraBits int, src *rng.Source) *Newcache {
	return NewWithPolicy(sizeBytes, extraBits, src, nil)
}

// NewWithPolicy builds a Newcache whose index-miss victim selection follows
// pol over the whole physical store (nil selects the historical SecRAND
// default, a uniform draw from src). Tag misses keep the logical
// direct-mapped semantics regardless of policy — only the index-miss
// placement is the replacement decision the Peters et al. axis varies.
// It panics on a shape Check rejects.
func NewWithPolicy(sizeBytes, extraBits int, src *rng.Source, pol cache.Policy) *Newcache {
	if err := Check(sizeBytes, extraBits); err != nil {
		panic(err)
	}
	phys := sizeBytes / mem.LineSize
	if src == nil {
		panic("newcache: nil rng source")
	}
	if pol == nil {
		pol = cache.Random{Src: src}
	}
	if err := cache.PolicyValid(pol); err != nil {
		panic(err)
	}
	logical := phys << extraBits
	c := &Newcache{
		physLines:  phys,
		extraBits:  extraBits,
		logicalCap: logical,
		lidxMask:   uint64(logical - 1),
		lines:      make([]ncLine, phys),
		stamps:     make([]uint64, phys),
		policy:     pol,
		src:        src,
	}
	_, c.noState = pol.(cache.Random)
	for d := range c.remaps {
		c.remaps[d] = make([]int32, logical)
		for i := range c.remaps[d] {
			c.remaps[d][i] = -1
		}
	}
	return c
}

// SetActiveDomain selects the trust domain whose remapping table maps
// subsequent accesses. Out-of-range domains are clamped into
// [0, MaxDomains).
func (c *Newcache) SetActiveDomain(d int) {
	if d < 0 {
		d = 0
	}
	c.active = d % MaxDomains
}

// LogicalIndex returns the logical (extended) index of line l.
func (c *Newcache) LogicalIndex(l mem.Line) int { return int(uint64(l) & c.lidxMask) }

// NumLines returns the physical line capacity.
func (c *Newcache) NumLines() int { return c.physLines }

// Stats returns the live statistics counters.
func (c *Newcache) Stats() *cache.Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *Newcache) SetEvictionObserver(fn cache.EvictionObserver) { c.onEv = fn }

// locate returns the physical line holding l under the active domain's
// remapping table, or -1.
func (c *Newcache) locate(l mem.Line) int {
	p := c.remaps[c.active][c.LogicalIndex(l)]
	if p >= 0 && c.lines[p].valid && c.lines[p].tag == l {
		return int(p)
	}
	return -1
}

// Lookup implements cache.Cache.
func (c *Newcache) Lookup(l mem.Line, write bool) bool {
	p := c.locate(l)
	if p < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	c.lines[p].referenced = true
	if !c.noState {
		c.policy.OnHit(c.stamps, p, c.tick)
	}
	if write {
		c.lines[p].dirty = true
	}
	return true
}

// Probe implements cache.Cache.
func (c *Newcache) Probe(l mem.Line) bool { return c.locate(l) >= 0 }

// Fill implements cache.Cache.
func (c *Newcache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	lidx := c.LogicalIndex(l)
	c.tick++
	if p := c.locate(l); p >= 0 {
		c.lines[p].dirty = c.lines[p].dirty || opts.Dirty
		if !c.noState {
			c.policy.OnFill(c.stamps, p, c.tick)
		}
		return cache.Victim{}
	}
	c.stats.Fills++

	var p int
	if mapped := c.remaps[c.active][lidx]; mapped >= 0 && c.lines[mapped].valid {
		// Tag miss: replace the conflicting line (LDM semantics).
		p = int(mapped)
	} else {
		// Index miss: replacement-policy pick over the whole store
		// (SecRAND under the default uniform-random policy).
		p = c.policy.Victim(c.stamps)
	}

	var v cache.Victim
	if c.lines[p].valid {
		v = c.evict(p)
	}
	c.lines[p] = ncLine{
		tag:    l,
		lidx:   lidx,
		domain: c.active,
		valid:  true,
		dirty:  opts.Dirty,
		offset: opts.Offset,
	}
	if !c.noState {
		c.policy.OnFill(c.stamps, p, c.tick)
	}
	c.remaps[c.active][lidx] = int32(p)
	return v
}

// evict clears physical line p, tears down its mapping, and reports the
// victim.
func (c *Newcache) evict(p int) cache.Victim {
	ln := &c.lines[p]
	v := cache.Victim{
		Valid:      true,
		Line:       ln.tag,
		Dirty:      ln.dirty,
		Referenced: ln.referenced,
		Offset:     ln.offset,
	}
	c.stats.Evictions++
	if v.Dirty {
		c.stats.Writebacks++
	}
	if c.onEv != nil {
		c.onEv(v)
	}
	if c.remaps[ln.domain][ln.lidx] == int32(p) {
		c.remaps[ln.domain][ln.lidx] = -1
	}
	ln.valid = false
	return v
}

// Invalidate implements cache.Cache. Unlike Lookup, invalidation matches
// by tag in every domain's remapping table, not only the issuing process's
// (a clflush snoops by address). Every valid physical line p is mapped by
// its own domain's table, remaps[domain][lidx] == p, so the one slot per
// table is the whole search. When several domains hold l, the lowest
// physical index is evicted, the line a scan of the store would find first.
func (c *Newcache) Invalidate(l mem.Line) bool {
	lidx := c.LogicalIndex(l)
	victim := -1
	for d := range c.remaps {
		p := int(c.remaps[d][lidx])
		if p >= 0 && (victim < 0 || p < victim) && c.lines[p].valid && c.lines[p].tag == l {
			victim = p
		}
	}
	if victim < 0 {
		return false
	}
	c.stats.Invalidates++
	c.evict(victim)
	return true
}

// Flush implements cache.Cache.
func (c *Newcache) Flush() {
	for p := range c.lines {
		if c.lines[p].valid {
			c.stats.Invalidates++
			c.evict(p)
		}
	}
}

// Contents returns the line numbers of all valid lines.
//
//lint:ignore unused test support: the Newcache tests list resident lines, which no production path exposes
func (c *Newcache) Contents() []mem.Line {
	var out []mem.Line
	for p := range c.lines {
		if c.lines[p].valid {
			out = append(out, c.lines[p].tag)
		}
	}
	return out
}

func (c *Newcache) String() string {
	return fmt.Sprintf("Newcache(%dKB, k=%d)", c.physLines*mem.LineSize/1024, c.extraBits)
}

// Occupancy returns the number of valid physical lines. It is a pure
// observer used by the occupancy-channel attacks as footprint ground truth.
func (c *Newcache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
