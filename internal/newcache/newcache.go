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

// MaxDomains bounds the number of protected trust domains with private
// remapping tables (Wang & Lee: "Protected processes have different
// remapping tables, while all unprotected processes share the same
// remapping table"). Domain 0 is the shared unprotected table.
const MaxDomains = 4

// Newcache is a logical direct-mapped secure cache with a remapping table.
// Its physical lines live in a cache.Slots store that the replacement
// policy treats as one set, all (the LDM store has no set structure of its
// own).
type Newcache struct {
	extraBits int
	lidxMask  uint64
	// remaps[d] is trust domain d's remapping table: logical index ->
	// physical line, or -1.
	remaps [MaxDomains][]int32
	// domain[p] is the trust domain whose table maps physical line p.
	domain []uint8
	active int
	slots  cache.Slots
	all    cache.Set
}

var (
	_ cache.Cache       = (*Newcache)(nil)
	_ cache.DomainAware = (*Newcache)(nil)
)

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
	logical := phys << extraBits
	c := &Newcache{
		extraBits: extraBits,
		lidxMask:  uint64(logical - 1),
		domain:    make([]uint8, phys),
		all:       cache.Range(0, phys),
	}
	c.slots = cache.NewSlots(phys, pol, c.unmap)
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
func (c *Newcache) NumLines() int { return c.slots.NumLines() }

// Stats returns the live statistics counters.
func (c *Newcache) Stats() *cache.Stats { return c.slots.Stats() }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *Newcache) SetEvictionObserver(fn cache.EvictionObserver) { c.slots.SetEvictionObserver(fn) }

// holds reports whether physical line p, a remapping table entry, holds l.
func (c *Newcache) holds(p int32, l mem.Line) bool {
	if p < 0 {
		return false
	}
	t, ok := c.slots.Line(int(p))
	return ok && t == l
}

// locate returns the physical line holding l under the active domain's
// remapping table, or -1.
func (c *Newcache) locate(l mem.Line) int {
	if p := c.remaps[c.active][c.LogicalIndex(l)]; c.holds(p, l) {
		return int(p)
	}
	return -1
}

// Lookup implements cache.Cache.
func (c *Newcache) Lookup(l mem.Line, write bool) bool {
	return c.slots.Access(c.all, c.locate(l), write)
}

// Probe implements cache.Cache.
func (c *Newcache) Probe(l mem.Line) bool { return c.locate(l) >= 0 }

// Fill implements cache.Cache.
func (c *Newcache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	lidx := c.LogicalIndex(l)
	if p := c.locate(l); p >= 0 {
		c.slots.Refresh(c.all, p, opts)
		return cache.Victim{}
	}
	// Tag miss: replace the conflicting line (LDM semantics). Index miss:
	// replacement-policy pick over the whole store (SecRAND under the
	// default uniform-random policy).
	p := int(c.remaps[c.active][lidx])
	if p < 0 || !c.slots.Valid(p) {
		p = c.slots.Victim(c.all)
	}
	var v cache.Victim
	if c.slots.Valid(p) {
		v = c.slots.Evict(p)
	}
	c.slots.Install(c.all, p, l, opts)
	c.domain[p] = uint8(c.active)
	c.remaps[c.active][lidx] = int32(p)
	return v
}

// unmap is the store's teardown: it clears the remapping table entry that
// maps physical line p, which is about to lose line l.
func (c *Newcache) unmap(p int, l mem.Line) {
	if m := &c.remaps[c.domain[p]][c.LogicalIndex(l)]; *m == int32(p) {
		*m = -1
	}
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
		p := c.remaps[d][lidx]
		if (victim < 0 || int(p) < victim) && c.holds(p, l) {
			victim = int(p)
		}
	}
	if victim < 0 {
		return false
	}
	c.slots.Invalidate(victim)
	return true
}

// Flush implements cache.Cache.
func (c *Newcache) Flush() { c.slots.Flush() }

func (c *Newcache) String() string {
	return fmt.Sprintf("Newcache(%dKB, k=%d)", c.slots.NumLines()*mem.LineSize/1024, c.extraBits)
}

// Occupancy returns the number of valid physical lines (see
// cache.Slots.Occupancy).
func (c *Newcache) Occupancy() int { return c.slots.Occupancy() }
