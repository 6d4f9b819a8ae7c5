// Package cache provides the core cache model every cache architecture in
// this repository is built on: a Cache interface with line-granular lookup,
// fill, probe, invalidate and flush operations; a parameterized
// set-associative implementation with pluggable replacement policies (LRU,
// FIFO, random, tree-PLRU, SRRIP, BRRIP); per-line metadata (dirty, lock,
// owner, fill-offset tag) used
// by PLcache and by the spatial-locality profiler; and statistics counters.
//
// A deliberate property of the model is that Lookup never fills: the fill
// decision belongs to the fill policy (demand fetch, or the random fill
// engine in internal/core), which is exactly the separation the paper argues
// for — the fill strategy, not the lookup path, is what must be re-designed
// for security.
package cache

import (
	"fmt"

	"randfill/internal/mem"
)

// NoOwner is the owner id of a line not associated with any process.
const NoOwner = -1

// Stats counts the externally visible cache events. Hit/miss counters are
// driven by Lookup; fill/eviction counters by Fill and Invalidate.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64
	Invalidates uint64
	// FillRefused counts fills rejected by the architecture (PLcache
	// refuses to evict a line locked by another process).
	FillRefused uint64
}

// Accesses returns Hits + Misses.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// FillOpts carries the per-line metadata recorded when a line is installed.
type FillOpts struct {
	// Dirty marks the line as modified (installed by a write allocate).
	Dirty bool
	// Lock sets the PLcache-style lock bit.
	Lock bool
	// Owner is the process id owning the line; NoOwner if none.
	Owner int
	// Offset is the fill-offset tag d used by the spatial-locality
	// profiler (Equation 9): the distance in lines between this fill and
	// the demand miss that triggered it. 0 for demand fills.
	Offset int8
}

// Victim describes the line displaced by a Fill (or examined by eviction
// observers).
type Victim struct {
	// Valid reports whether a valid line was actually displaced. A fill
	// into an invalid way displaces nothing.
	Valid bool
	// Refused reports that the fill itself was rejected (no line was
	// installed); only PLcache produces refused fills.
	Refused bool
	Line    mem.Line
	Dirty   bool
	// Referenced reports whether the victim was referenced by at least
	// one Lookup after being filled.
	Referenced bool
	// Offset is the victim's fill-offset tag.
	Offset int8
}

// Cache is the contract shared by the conventional set-associative cache,
// Newcache and PLcache. All operations are line-granular.
type Cache interface {
	// Lookup performs a demand access to the line. On a hit it updates
	// replacement and reference state and returns true; on a miss it
	// returns false and changes nothing (no fill — fills are explicit).
	Lookup(line mem.Line, write bool) bool

	// Probe reports whether the line is present without perturbing
	// replacement state or statistics. The random fill queue uses it to
	// drop requests that already hit (paper Section IV.B.2), and the
	// attacks use it as the attacker's ground-truth oracle in tests.
	Probe(line mem.Line) bool

	// Fill installs the line, evicting a victim chosen by the
	// architecture's replacement policy if needed, and returns the
	// victim. Filling a line that is already present refreshes its
	// metadata and displaces nothing.
	Fill(line mem.Line, opts FillOpts) Victim

	// Invalidate removes the line if present (clflush). Returns whether
	// it was present. The removed line is reported to the eviction
	// observer like any other victim.
	Invalidate(line mem.Line) bool

	// Flush invalidates every line.
	Flush()

	// Stats returns the live statistics counters.
	Stats() *Stats

	// NumLines returns the total line capacity.
	NumLines() int
}

// EvictionObserver receives every displaced or invalidated valid line.
// The spatial-locality profiler (Figure 9) registers one to account
// referenced-before-evicted ratios per fill offset.
type EvictionObserver func(v Victim)

// Geometry describes a cache's size and shape.
type Geometry struct {
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets implied by the geometry.
func (g Geometry) Sets() int {
	lines := g.SizeBytes / mem.LineSize
	return lines / g.Ways
}

// ValidateGeometry checks g the way NewSetAssoc does — size a positive
// line multiple, lines divisible into ways, power-of-two set count — and
// panics with the same diagnostics on violation. Design packages that
// manage their own line arrays (PLcache, RPcache, NoMo) call it instead of
// constructing a throwaway SetAssoc just to trigger the checks.
func ValidateGeometry(g Geometry) { g.check() }

func (g Geometry) check() {
	lines := g.SizeBytes / mem.LineSize
	if g.SizeBytes <= 0 || g.SizeBytes%mem.LineSize != 0 {
		panic(fmt.Sprintf("cache: size %d not a positive multiple of line size", g.SizeBytes))
	}
	if g.Ways <= 0 || lines%g.Ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible into %d ways", lines, g.Ways))
	}
	sets := lines / g.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
}

func (g Geometry) String() string {
	kb := g.SizeBytes / 1024
	if g.Ways == 1 {
		return fmt.Sprintf("%dKB DM", kb)
	}
	return fmt.Sprintf("%dKB %d-way", kb, g.Ways)
}
