// Package plcache implements PLcache (Wang & Lee, ISCA 2007): a
// partition-based secure cache that performs fine-grained dynamic
// partitioning by locking protected cache lines in place. Each line carries
// a process id and a locking status bit; special load/store instructions set
// or clear the lock bit on the lines they touch.
//
// Replacement semantics (the part that matters for both security and the
// paper's performance comparison):
//
//   - a locked line is never chosen as a replacement victim;
//   - if every way of the target set is locked, the incoming line is not
//     cached at all — the data is forwarded to the processor uncached and
//     the fill is "refused" (cache.Victim.Refused).
//
// The paper's "PLcache+preload" baseline (Kong et al., HPCA 2009) preloads
// all security-critical tables with locking loads at the start of the
// computation (and on every context switch); Preload implements that
// routine.
package plcache

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
)

type plLine struct {
	tag        mem.Line
	valid      bool
	dirty      bool
	referenced bool
	locked     bool
	owner      int
	offset     int8
}

// PLcache is a set-associative cache with per-line locking.
type PLcache struct {
	geom  cache.Geometry
	sets  int
	ways  int
	lines []plLine
	// stamps is the replacement-policy state, parallel to lines; the
	// policy operates on it as a contiguous per-set subslice (same layout
	// as cache.SetAssoc).
	stamps []uint64
	policy cache.Policy
	tick   uint64
	stats  cache.Stats
	onEv   cache.EvictionObserver
}

var _ cache.Cache = (*PLcache)(nil)

// NewWithPolicy builds a PLcache whose victim selection among unlocked
// ways follows pol (nil selects the historical LRU default). Locking is
// enforced through the policy's masked victim path, so the associativity
// must not exceed 64 ways.
func NewWithPolicy(geom cache.Geometry, pol cache.Policy) *PLcache {
	cache.ValidateGeometry(geom)
	if pol == nil {
		pol = cache.LRU{}
	}
	if err := cache.PolicyValid(pol); err != nil {
		panic(err)
	}
	if geom.Ways > 64 {
		panic(fmt.Sprintf("plcache: masked victim selection requires <= 64 ways, have %d", geom.Ways))
	}
	sets := geom.Sets()
	return &PLcache{
		geom:   geom,
		sets:   sets,
		ways:   geom.Ways,
		lines:  make([]plLine, sets*geom.Ways),
		stamps: make([]uint64, sets*geom.Ways),
		policy: pol,
	}
}

// NumLines returns the total line capacity.
func (c *PLcache) NumLines() int { return len(c.lines) }

// Stats returns the live statistics counters.
func (c *PLcache) Stats() *cache.Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *PLcache) SetEvictionObserver(fn cache.EvictionObserver) { c.onEv = fn }

func (c *PLcache) setIndex(l mem.Line) int { return int(uint64(l) & uint64(c.sets-1)) }

func (c *PLcache) set(idx int) []plLine { return c.lines[idx*c.ways : (idx+1)*c.ways] }

// setStamps returns set idx's replacement-state words.
func (c *PLcache) setStamps(idx int) []uint64 { return c.stamps[idx*c.ways : (idx+1)*c.ways] }

func find(s []plLine, l mem.Line) int {
	for w := range s {
		if s[w].valid && s[w].tag == l {
			return w
		}
	}
	return -1
}

// Lookup implements cache.Cache.
func (c *PLcache) Lookup(l mem.Line, write bool) bool {
	idx := c.setIndex(l)
	s := c.set(idx)
	w := find(s, l)
	if w < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.tick++
	s[w].referenced = true
	c.policy.OnHit(c.setStamps(idx), w, c.tick)
	if write {
		s[w].dirty = true
	}
	return true
}

// Probe implements cache.Cache.
func (c *PLcache) Probe(l mem.Line) bool {
	return find(c.set(c.setIndex(l)), l) >= 0
}

// Fill implements cache.Cache. With opts.Lock set it models the special
// locking load: the line is installed (or refreshed) with its lock bit set
// and owned by opts.Owner.
func (c *PLcache) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	idx := c.setIndex(l)
	s := c.set(idx)
	stamps := c.setStamps(idx)
	c.tick++
	if w := find(s, l); w >= 0 {
		s[w].dirty = s[w].dirty || opts.Dirty
		if opts.Lock {
			s[w].locked = true
			s[w].owner = opts.Owner
		}
		c.policy.OnFill(stamps, w, c.tick)
		return cache.Victim{}
	}

	// Choose a victim: an invalid way first, else the policy's pick among
	// unlocked ways.
	w := -1
	for i := range s {
		if !s[i].valid {
			w = i
			break
		}
	}
	var v cache.Victim
	if w < 0 {
		unlocked := uint64(0)
		for i := range s {
			if !s[i].locked {
				unlocked |= 1 << uint(i)
			}
		}
		w = c.policy.VictimMasked(stamps, unlocked)
		if w < 0 {
			// Every way is locked: the fill is refused and the data
			// is forwarded to the processor uncached.
			c.stats.FillRefused++
			return cache.Victim{Refused: true}
		}
		v = c.evict(s, w)
	}
	c.stats.Fills++
	s[w] = plLine{
		tag:    l,
		valid:  true,
		dirty:  opts.Dirty,
		locked: opts.Lock,
		owner:  opts.Owner,
		offset: opts.Offset,
	}
	c.policy.OnFill(stamps, w, c.tick)
	return v
}

func (c *PLcache) evict(s []plLine, w int) cache.Victim {
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

// Invalidate implements cache.Cache. Locked lines can be invalidated (the
// lock protects against replacement, not explicit invalidation by a flush
// instruction from the owning process).
func (c *PLcache) Invalidate(l mem.Line) bool {
	s := c.set(c.setIndex(l))
	w := find(s, l)
	if w < 0 {
		return false
	}
	c.stats.Invalidates++
	c.evict(s, w)
	return true
}

// Flush implements cache.Cache.
func (c *PLcache) Flush() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.stats.Invalidates++
			set := c.set(i / c.ways)
			c.evict(set, i%c.ways)
		}
	}
}

// Preload installs and locks every cache line of each region on behalf of
// owner, modelling the PLcache+preload routine run before the cryptographic
// computation and on context switches. It returns the number of lines that
// could not be locked because their sets were exhausted (all ways already
// locked) — with many tables and a small cache the preload itself can fail
// to pin everything, the scalability problem the paper highlights.
func (c *PLcache) Preload(owner int, regions ...mem.Region) (unlockable int) {
	for _, r := range regions {
		for _, l := range r.Lines() {
			v := c.Fill(l, cache.FillOpts{Lock: true, Owner: owner})
			if v.Refused {
				unlockable++
			}
		}
	}
	return unlockable
}

// LockedLines returns the number of currently locked lines.
//
//lint:ignore unused test support: the PLcache tests count locked lines, which no production path exposes
func (c *PLcache) LockedLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].locked {
			n++
		}
	}
	return n
}

// IsLocked reports whether line l is present and locked.
//
//lint:ignore unused test support: the PLcache tests read the lock bit, which no production path exposes
func (c *PLcache) IsLocked(l mem.Line) bool {
	s := c.set(c.setIndex(l))
	w := find(s, l)
	return w >= 0 && s[w].locked
}

func (c *PLcache) String() string { return fmt.Sprintf("PLcache(%v)", c.geom) }

// Occupancy returns the number of valid lines. It is a pure observer used
// by the occupancy-channel attacks as footprint ground truth.
func (c *PLcache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
