// Package conformance is the executable SecureCache contract: one exported
// suite, RunConformance, that every design package's tests run against its
// own registry entry. A new design added to the registry gets the whole
// suite for free by adding one test function; a design that violates the
// contract (hidden nondeterminism, double-counted accesses, leaky flush,
// lost or duplicated eviction callbacks) fails here before any experiment
// ever sees it.
package conformance

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/securecache"
)

// Factory builds a fresh design instance whose randomness derives entirely
// from src: two instances built from equal-seeded sources must behave
// identically.
type Factory func(src *rng.Source) securecache.SecureCache

// SmallConfig is the geometry the design packages drive the suite at: 64
// lines, small enough that the op script overflows the capacity many times
// and every eviction path runs.
//
//lint:ignore unused test support: the shared design-conformance suite that every design package's tests run
func SmallConfig() securecache.Config {
	return securecache.Config{Geom: cache.Geometry{SizeBytes: 4 * 1024, Ways: 4}}
}

// driveOps is the length of the conformance op script. It is sized to
// overflow a 64-line instance several times over, so every design exercises
// its eviction path, not just cold fills.
const driveOps = 4096

// factorySeed seeds the design instance; opSeed seeds the op script. They
// are distinct on purpose: the script must not be correlated with the
// design's internal randomness.
const (
	factorySeed = 0xc0f0
	opSeed      = 0x5c21
)

// step is one scripted operation's observable outcome.
type step struct {
	op  byte
	hit bool
	occ int
}

// drive runs the fixed op script against c and returns the per-op
// observable trace. The script mixes reads, writes, invalidates, probes,
// party switches and periodic occupancy reads over an address range about
// four times the typical instance capacity.
func drive(c securecache.SecureCache, ops int) ([]step, int) {
	src := rng.New(opSeed)
	span := 4 * c.NumLines()
	trace := make([]step, 0, ops)
	accesses := 0
	for i := 0; i < ops; i++ {
		l := mem.Line(src.Intn(span))
		var s step
		switch op := src.Intn(16); {
		case op < 10: // demand read
			s = step{op: 'r', hit: c.Access(l, false)}
			accesses++
		case op < 12: // demand write
			s = step{op: 'w', hit: c.Access(l, true)}
			accesses++
		case op < 13: // clflush
			s = step{op: 'i', hit: c.Invalidate(l)}
		case op < 15: // side-effect-free probe
			s = step{op: 'p', hit: c.Probe(l)}
		default: // switch the accessing party
			c.SetParty(src.Intn(2))
			s = step{op: 's'}
		}
		if i%64 == 0 {
			s.occ = c.Occupancy()
		}
		trace = append(trace, s)
	}
	return trace, accesses
}

// RunConformance asserts the SecureCache contract for the design f builds.
//
//lint:ignore unused test support: the shared design-conformance suite that every design package's tests run
func RunConformance(t *testing.T, f Factory) {
	t.Run("DeterministicReplay", func(t *testing.T) {
		a := f(rng.New(factorySeed))
		b := f(rng.New(factorySeed))
		ta, _ := drive(a, driveOps)
		tb, _ := drive(b, driveOps)
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("op %d diverged between equal-seeded instances: %+v vs %+v", i, ta[i], tb[i])
			}
		}
		if *a.Stats() != *b.Stats() {
			t.Fatalf("equal-seeded instances ended with different stats: %+v vs %+v", *a.Stats(), *b.Stats())
		}
		// A different seed must be allowed to behave differently (the
		// randomized designs must actually consume the source) — but the
		// contract only requires it to still satisfy the counters below,
		// so no assertion on divergence here.
	})

	t.Run("CounterConsistency", func(t *testing.T) {
		c := f(rng.New(factorySeed))
		_, accesses := drive(c, driveOps)
		st := c.Stats()
		if got := st.Hits + st.Misses; got != uint64(accesses) {
			t.Fatalf("hits+misses = %d, want the %d Access calls (hits %d, misses %d)",
				got, accesses, st.Hits, st.Misses)
		}
		if occ := c.Occupancy(); occ < 0 || occ > c.NumLines() {
			t.Fatalf("occupancy %d outside [0, %d]", occ, c.NumLines())
		}
		if st.Fills < st.Evictions {
			t.Fatalf("more evictions (%d) than fills (%d)", st.Evictions, st.Fills)
		}
	})

	t.Run("FlushEmpties", func(t *testing.T) {
		c := f(rng.New(factorySeed))
		drive(c, driveOps)
		c.Flush()
		if occ := c.Occupancy(); occ != 0 {
			t.Fatalf("occupancy %d after Flush, want 0", occ)
		}
		for l := 0; l < 4*c.NumLines(); l++ {
			if c.Probe(mem.Line(l)) {
				t.Fatalf("line %d still probes present after Flush", l)
			}
		}
		// A flushed instance must keep working: the next access to any
		// line is a miss, not a stale hit.
		pre := c.Stats().Misses
		if c.Access(0, false) {
			t.Fatal("access after Flush reported a hit")
		}
		if c.Stats().Misses != pre+1 {
			t.Fatal("access after Flush did not count a miss")
		}
	})

	t.Run("EvictionExactlyOnce", func(t *testing.T) {
		c := f(rng.New(factorySeed))
		var observed []cache.Victim
		c.SetEvictionObserver(func(v cache.Victim) { observed = append(observed, v) })
		drive(c, driveOps)
		occ := c.Occupancy()
		before := len(observed)
		c.Flush()
		if flushed := len(observed) - before; flushed != occ {
			t.Fatalf("Flush of %d resident lines produced %d eviction callbacks", occ, flushed)
		}
		if got, want := uint64(len(observed)), c.Stats().Evictions; got != want {
			t.Fatalf("%d eviction callbacks for %d counted evictions", got, want)
		}
		for i, v := range observed {
			if !v.Valid() {
				t.Fatalf("callback %d delivered an invalid victim: %+v", i, v)
			}
		}
	})
}
