// Package cache provides the core cache model every cache architecture in
// this repository is built on: a Cache interface with line-granular lookup,
// fill, probe, invalidate and flush operations; pluggable replacement
// policies (LRU, FIFO, random, tree-PLRU, SRRIP, BRRIP); statistics
// counters; Slots, the one line store every design keeps its lines in
// (per-line tags, dirty and referenced bits, a lock bit, the fill-offset
// tag the spatial-locality profiler reads, and policy state, with the
// per-line protocol every design shares); and SetAssoc, the
// set-associative cache over it. SetAssoc honours the lock bit and an
// optional per-owner allowed-ways mask, which makes PLcache
// (internal/plcache) and NoMo (internal/nomo) configurations of it. The
// other designs (Newcache, RPcache, ScatterCache, MIRAGE) are their own
// index and victim choice over a Slots.
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
	// FillRefused counts fills rejected by the architecture (every way
	// the filling owner may use holds a locked line, or its way mask is
	// empty). A refused fill installs nothing and does not count in Fills.
	FillRefused uint64
}

// Accesses returns Hits + Misses.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// FillOpts carries the per-line metadata recorded when a line is installed.
type FillOpts struct {
	// Dirty marks the line as modified (installed by a write allocate).
	Dirty bool
	// Lock sets the PLcache lock bit: SetAssoc never chooses a locked
	// line as a victim.
	Lock bool
	// Owner is the process id of the filling thread; NoOwner if none.
	// It selects the RestrictWays mask the fill may use, and no cache
	// stores it with the line.
	Owner int
	// Offset is the fill-offset tag d used by the spatial-locality
	// profiler (Equation 9): the distance in lines between this fill and
	// the demand miss that triggered it. 0 for demand fills.
	Offset int8
}

// Victim describes the line displaced by a Fill (or examined by eviction
// observers). It is three fields and 16 bytes, so Go passes and returns it
// in registers: a Fill's result reaches its caller without a copy through
// memory.
type Victim struct {
	Line mem.Line
	// Offset is the victim's fill-offset tag.
	Offset int8
	// flags holds the dirty and referenced bits in their Slots meta
	// positions, plus victimValid and victimRefused.
	flags uint8
}

// Victim flags beyond the dirty and referenced meta bits a record copies.
const (
	victimValid uint8 = 1 << (iota + 3)
	victimRefused
)

// Valid reports whether a valid line was actually displaced. A fill into an
// invalid way displaces nothing.
func (v Victim) Valid() bool { return v.flags&victimValid != 0 }

// Refused reports that the fill itself was rejected (no line was
// installed); only the lock bits (PLcache) and way masks (NoMo) of SetAssoc
// produce refused fills.
func (v Victim) Refused() bool { return v.flags&victimRefused != 0 }

// Dirty reports whether the victim was modified while cached.
func (v Victim) Dirty() bool { return v.flags&metaDirty != 0 }

// Referenced reports whether the victim was referenced by at least one
// Lookup after being filled.
func (v Victim) Referenced() bool { return v.flags&metaReferenced != 0 }

// Cache is the contract every line store in this repository implements:
// the set-associative cache and each secure design. All operations are
// line-granular.
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

// DomainAware is implemented by the caches whose behaviour depends on the
// accessing trust domain: Newcache's per-domain remapping tables and
// RPcache's per-domain permutation tables. The simulator selects a thread's
// domain before each of its accesses, the registry's demand adapter on
// SetParty, and the functional attacks between attacker and victim
// operations.
type DomainAware interface {
	SetActiveDomain(d int)
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

// maxSizeBytes bounds a cache's capacity at 256 MB, 64 times the largest
// cache any experiment or golden builds (rfsim's 4 MB L3). A larger size is
// a configuration error rather than a request for gigabytes of line arrays
// (Newcache adds 256 bytes of remapping table per line on top).
const maxSizeBytes = 256 << 20

// CheckGeometry returns nil if g is a set-associative shape — size a
// positive line multiple of at most 256 MB, lines divisible into ways,
// power-of-two set count — and otherwise an error naming the rule g
// breaks. It is the one statement of that rule: NewSetAssoc panics through
// it, every other design's check calls it, and sim.Config.Validate
// reports it.
func CheckGeometry(g Geometry) error {
	lines := g.SizeBytes / mem.LineSize
	if g.SizeBytes <= 0 || g.SizeBytes%mem.LineSize != 0 {
		return fmt.Errorf("cache: size %d not a positive multiple of line size", g.SizeBytes)
	}
	if g.SizeBytes > maxSizeBytes {
		return fmt.Errorf("cache: size %d exceeds the %d-byte limit", g.SizeBytes, maxSizeBytes)
	}
	if g.Ways <= 0 || lines%g.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible into %d ways", lines, g.Ways)
	}
	if sets := lines / g.Ways; sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// CheckMaskedGeometry is CheckGeometry for a SetAssoc whose victim choice
// goes through the policy's masked path (PLcache's lock bits, NoMo's way
// masks): an allowed-ways mask is one 64-bit word, so g may have at most 64
// ways.
func CheckMaskedGeometry(g Geometry) error {
	if err := CheckGeometry(g); err != nil {
		return err
	}
	if g.Ways > 64 {
		return fmt.Errorf("cache: lock bits and way masks require <= 64 ways, have %d", g.Ways)
	}
	return nil
}

func (g Geometry) String() string {
	kb := g.SizeBytes / 1024
	if g.Ways == 1 {
		return fmt.Sprintf("%dKB DM", kb)
	}
	return fmt.Sprintf("%dKB %d-way", kb, g.Ways)
}
