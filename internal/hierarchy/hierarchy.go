// Package hierarchy composes cache levels and per-level fill policies into
// an N-level memory hierarchy with one uniform miss path. It is the
// composition layer the paper's Section VI evaluation needs: random fill at
// the L1, at the L2, at both, or at any subset of an arbitrarily deep stack
// — each level is any cache.Cache paired with a fill policy (conventional
// demand fetch, or a real core.Engine random-fill instance with its full
// nofill/drop/clamp bookkeeping) and a hit latency.
//
// The miss-path contract (see DESIGN.md §8):
//
//   - A demand request consults levels top-down; each traversed level charges
//     its hit latency, and a full miss charges the memory latency once.
//   - On the unwind, each missed level applies its own fill policy: a
//     demand-fill level installs the line; a random-fill level forwards it
//     upward uncached (nofill) and instead fetches a random neighbor from
//     the levels below as a zero-latency background fill (the random fill
//     engine works in the background, off the critical path).
//   - Dirty victims displaced by any fill are written back into the next
//     level down, allocating there on a write-back miss, and cascade
//     recursively; a dirty victim of the last level is written to memory.
//     Write-backs always allocate — nofill applies to demand fetches, not to
//     data being pushed down.
//   - Background fetches (random fills) count in each level's traffic
//     statistics but never add latency to the demand access that
//     triggered them.
//
// Level 0 is special only by convention: the timing simulator's Thread owns
// the level-0 lookup (it models MSHR occupancy and per-thread fill engines),
// so it drives Fetch from level 1 and applies level-0 fills via Fill. The
// functional path (Access) walks all levels including level 0.
package hierarchy

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
)

// LevelStats counts the traffic one level observes. Random-fill decision
// counters (nofills, issued/dropped/clamped random fills) live in the
// level's engine Stats — see Level.FillStats.
type LevelStats struct {
	// Accesses counts fetch requests arriving at this level: demand
	// misses from above plus background (random fill) fetches that
	// consult this level on their way down.
	Accesses uint64
	// Hits and Misses partition Accesses.
	Hits   uint64
	Misses uint64
	// WritebacksIn counts dirty victims from the level above written into
	// this level; WritebackAllocs counts those that missed and allocated.
	WritebacksIn    uint64
	WritebackAllocs uint64
}

// Level is one cache level: a cache, a fill policy and a hit latency.
type Level struct {
	// Cache holds the level's contents. Any cache.Cache works: the
	// conventional set-associative cache or any of the secure-cache
	// architectures.
	Cache cache.Cache
	// Engine, when non-nil, applies the random fill policy at this level
	// (it must wrap Cache). When nil the level demand-fills.
	Engine *core.Engine
	// HitLat is the access latency charged when a request reaches this
	// level, hit or miss (the lookup itself costs the hit latency; a miss
	// additionally pays the levels below).
	HitLat uint64

	stats LevelStats
}

// NewLevel returns a demand-fill level over c with the given hit latency.
func NewLevel(c cache.Cache, hitLat uint64) *Level {
	return &Level{Cache: c, HitLat: hitLat}
}

// WithEngine attaches a random fill engine (which must wrap the level's
// cache) and returns the level, for construction chaining.
func (l *Level) WithEngine(e *core.Engine) *Level {
	if e != nil && e.Cache() != l.Cache {
		panic("hierarchy: fill engine must wrap the level's own cache")
	}
	l.Engine = e
	return l
}

// Stats returns the level's live traffic counters.
func (l *Level) Stats() *LevelStats { return &l.stats }

// FillStats returns the random-fill decision counters of the level's
// engine (nofills, random fills issued, dropped on tag hit, clamped for
// address underflow), or nil for a demand-fill level.
func (l *Level) FillStats() *core.Stats {
	if l.Engine == nil {
		return nil
	}
	return l.Engine.Stats()
}

// Hierarchy chains levels (index 0 nearest the processor) down to a flat
// memory latency model.
type Hierarchy struct {
	levels []*Level
	memLat uint64

	// memAccesses counts fetch requests served by memory (demand misses
	// and background fills that miss every level). Write-back traffic to
	// memory is counted separately in memWritebacks, mirroring the write
	// buffers that keep it off the fetch path.
	memAccesses   uint64
	memWritebacks uint64
}

// New builds a hierarchy over the given levels (top to bottom) and memory
// latency. At least one level is required.
func New(memLat uint64, levels ...*Level) *Hierarchy {
	if len(levels) == 0 {
		panic("hierarchy: need at least one level")
	}
	for i, l := range levels {
		if l == nil || l.Cache == nil {
			panic(fmt.Sprintf("hierarchy: level %d has no cache", i))
		}
		if l.Engine != nil && l.Engine.Cache() != l.Cache {
			panic(fmt.Sprintf("hierarchy: level %d engine does not wrap the level's cache", i))
		}
	}
	return &Hierarchy{levels: levels, memLat: memLat}
}

// Depth returns the number of cache levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// Level returns level i (0 nearest the processor).
func (h *Hierarchy) Level(i int) *Level { return h.levels[i] }

// MemAccesses returns the number of fetch requests served by memory.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccesses }

// MemWritebacks returns the number of dirty last-level victims written to
// memory.
func (h *Hierarchy) MemWritebacks() uint64 { return h.memWritebacks }

// Fetch is the uniform miss path. It services a miss raised above level k:
// it consults levels k..Depth-1 and then memory, applies each missed
// level's fill policy on the unwind, and returns the added latency. The
// timing simulator calls Fetch(1, ...) on an L1 miss.
func (h *Hierarchy) Fetch(k int, line mem.Line, write bool) uint64 {
	if k >= len(h.levels) {
		h.memAccesses++
		return h.memLat
	}
	lvl := h.levels[k]
	lvl.stats.Accesses++
	lat := lvl.HitLat
	if lvl.Cache.Lookup(line, write) {
		lvl.stats.Hits++
		return lat
	}
	lvl.stats.Misses++
	lat += h.Fetch(k+1, line, write)

	// Unwind: this level's fill policy decides what is installed here.
	if lvl.Engine == nil {
		h.Fill(k, line, cache.FillOpts{Dirty: write})
	} else {
		reqs := lvl.Engine.OnMiss(line)
		for i := 0; i < reqs.Len(); i++ {
			r := reqs.At(i)
			switch r.Type {
			case core.Normal:
				h.Fill(k, r.Line, cache.FillOpts{Dirty: write})
			case core.NoFill:
				// Forwarded upward uncached; a write miss under
				// nofill writes through to the level below.
			case core.RandomFill:
				// The random neighbor's data comes from the levels
				// below as a zero-latency background fill.
				h.Fetch(k+1, r.Line, false)
				h.Fill(k, r.Line, cache.FillOpts{Offset: r.Offset})
			}
		}
	}
	return lat
}

// Fill installs line into level k with the given metadata and writes any
// displaced dirty victim back into the next level down, cascading.
func (h *Hierarchy) Fill(k int, line mem.Line, opts cache.FillOpts) {
	h.writeback(k+1, h.levels[k].Cache.Fill(line, opts))
}

// writeback propagates a dirty victim displaced from level k-1 into level k:
// a write-back hit updates the line in place; a write-back miss allocates
// (the data must land somewhere), whose own victim cascades further down.
// Clean victims simply vanish; dirty victims of the last level are written
// to memory. Iterative, because each fill can displace at most one victim.
func (h *Hierarchy) writeback(k int, v cache.Victim) {
	for v.Valid() && v.Dirty() {
		if k >= len(h.levels) {
			h.memWritebacks++
			return
		}
		lvl := h.levels[k]
		lvl.stats.WritebacksIn++
		if lvl.Cache.Lookup(v.Line, true) {
			return
		}
		lvl.stats.WritebackAllocs++
		v = lvl.Cache.Fill(v.Line, cache.FillOpts{Dirty: true})
		k++
	}
}

// Access performs one full functional demand access from the top of the
// hierarchy: level-0 lookup, and on a miss the uniform miss path including
// level 0's own fill policy. It returns whether level 0 hit, plus the total
// latency (level 0's hit latency on a hit). This is the entry point for
// functional (non-MSHR-modelling) callers; the timing simulator drives
// level 0 itself.
func (h *Hierarchy) Access(line mem.Line, write bool) (hit bool, lat uint64) {
	l0 := h.levels[0]
	hitsBefore := l0.stats.Hits
	lat = h.Fetch(0, line, write)
	return l0.stats.Hits > hitsBefore, lat
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("Hierarchy(%d levels, memLat=%d)", len(h.levels), h.memLat)
}
