// Package nomo implements the NoMo cache (Domnitser et al., TACO 2012): a
// partition-based secure cache for SMT processors that statically reserves
// a number of ways per set for each hardware thread. A thread's fills may
// only evict lines from its own reserved ways or from the unreserved pool,
// so a co-running attacker cannot monopolize a set and observe the victim's
// evictions deterministically.
//
// As the paper notes (Section III.A), NoMo "only works for the case when
// the victim and the attacker processes are executing simultaneously in an
// SMT processor" — it partitions contention, not reuse, and so defeats
// neither Flush-Reload nor collision attacks.
package nomo

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
)

type nmLine struct {
	tag        mem.Line
	valid      bool
	dirty      bool
	referenced bool
	owner      int
	offset     int8
}

// NoMo is a set-associative cache with per-thread way reservation.
type NoMo struct {
	geom cache.Geometry
	sets int
	ways int
	// reserved is the number of ways reserved per hardware thread; the
	// first Threads*reserved ways of each set are partitioned, the rest
	// are shared.
	reserved int
	threads  int
	lines    []nmLine
	// stamps is the replacement-policy state, parallel to lines, operated
	// on as per-set subslices (same layout as cache.SetAssoc).
	stamps []uint64
	policy cache.Policy
	tick   uint64
	stats  cache.Stats
	onEv   cache.EvictionObserver
}

var _ cache.Cache = (*NoMo)(nil)

// New builds a NoMo cache reserving `reserved` ways of each set for each of
// `threads` hardware threads. It panics if the reservation exceeds the
// associativity (a hardware configuration error).
func New(geom cache.Geometry, threads, reserved int) *NoMo {
	return NewWithPolicy(geom, threads, reserved, nil)
}

// NewWithPolicy builds a NoMo cache whose victim selection among a thread's
// eligible ways follows pol (nil selects the historical LRU default). Way
// reservation is enforced through the policy's masked victim path, so the
// associativity must not exceed 64 ways.
func NewWithPolicy(geom cache.Geometry, threads, reserved int, pol cache.Policy) *NoMo {
	cache.ValidateGeometry(geom)
	if threads < 1 || reserved < 0 || threads*reserved > geom.Ways {
		panic(fmt.Sprintf("nomo: %d threads x %d reserved ways exceed %d-way sets",
			threads, reserved, geom.Ways))
	}
	if pol == nil {
		pol = cache.LRU{}
	}
	if err := cache.PolicyValid(pol); err != nil {
		panic(err)
	}
	if geom.Ways > 64 {
		panic(fmt.Sprintf("nomo: masked victim selection requires <= 64 ways, have %d", geom.Ways))
	}
	return &NoMo{
		geom:     geom,
		sets:     geom.Sets(),
		ways:     geom.Ways,
		reserved: reserved,
		threads:  threads,
		lines:    make([]nmLine, geom.Sets()*geom.Ways),
		stamps:   make([]uint64, geom.Sets()*geom.Ways),
		policy:   pol,
	}
}

// NumLines returns the total line capacity.
func (c *NoMo) NumLines() int { return len(c.lines) }

// Stats returns the live statistics counters.
func (c *NoMo) Stats() *cache.Stats { return &c.stats }

// SetEvictionObserver registers fn to receive every displaced valid line.
func (c *NoMo) SetEvictionObserver(fn cache.EvictionObserver) { c.onEv = fn }

func (c *NoMo) setIndex(l mem.Line) int { return int(uint64(l) & uint64(c.sets-1)) }

func (c *NoMo) set(idx int) []nmLine { return c.lines[idx*c.ways : (idx+1)*c.ways] }

// setStamps returns set idx's replacement-state words.
func (c *NoMo) setStamps(idx int) []uint64 { return c.stamps[idx*c.ways : (idx+1)*c.ways] }

func find(s []nmLine, l mem.Line) int {
	for w := range s {
		if s[w].valid && s[w].tag == l {
			return w
		}
	}
	return -1
}

// Lookup implements cache.Cache. Hits are served from any way regardless of
// reservation (the partition constrains replacement, not lookup).
func (c *NoMo) Lookup(l mem.Line, write bool) bool {
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
func (c *NoMo) Probe(l mem.Line) bool {
	return find(c.set(c.setIndex(l)), l) >= 0
}

// eligible reports whether thread `owner` may fill into way w: its own
// reserved ways plus the shared pool.
func (c *NoMo) eligible(owner, w int) bool {
	if owner < 0 || owner >= c.threads {
		// Unknown threads only use the shared pool.
		return w >= c.threads*c.reserved
	}
	if w >= c.threads*c.reserved {
		return true
	}
	return w/c.reserved == owner
}

// Fill implements cache.Cache. opts.Owner identifies the filling hardware
// thread.
func (c *NoMo) Fill(l mem.Line, opts cache.FillOpts) cache.Victim {
	idx := c.setIndex(l)
	s := c.set(idx)
	stamps := c.setStamps(idx)
	c.tick++
	if w := find(s, l); w >= 0 {
		s[w].dirty = s[w].dirty || opts.Dirty
		c.policy.OnFill(stamps, w, c.tick)
		return cache.Victim{}
	}
	c.stats.Fills++
	// Invalid eligible way first, else the policy's pick among eligible
	// ways.
	victim := -1
	eligible := uint64(0)
	for w := range s {
		if !c.eligible(opts.Owner, w) {
			continue
		}
		eligible |= 1 << uint(w)
		if victim < 0 && !s[w].valid {
			victim = w
		}
	}
	if victim < 0 {
		victim = c.policy.VictimMasked(stamps, eligible)
	}
	if victim < 0 {
		// No eligible way at all (shared pool empty and no
		// reservation): the fill is refused.
		c.stats.FillRefused++
		return cache.Victim{Refused: true}
	}
	var v cache.Victim
	if s[victim].valid {
		v = c.evict(s, victim)
	}
	s[victim] = nmLine{
		tag:    l,
		valid:  true,
		dirty:  opts.Dirty,
		owner:  opts.Owner,
		offset: opts.Offset,
	}
	c.policy.OnFill(stamps, victim, c.tick)
	return v
}

func (c *NoMo) evict(s []nmLine, w int) cache.Victim {
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

// Invalidate implements cache.Cache.
func (c *NoMo) Invalidate(l mem.Line) bool {
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
func (c *NoMo) Flush() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.stats.Invalidates++
			set := c.lines[i/c.ways*c.ways : i/c.ways*c.ways+c.ways]
			c.evict(set, i%c.ways)
		}
	}
}

func (c *NoMo) String() string {
	return fmt.Sprintf("NoMo(%v, %dx%d reserved)", c.geom, c.threads, c.reserved)
}

// Occupancy returns the number of valid lines. It is a pure observer used
// by the occupancy-channel attacks as footprint ground truth.
func (c *NoMo) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
