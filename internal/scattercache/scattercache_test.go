package scattercache_test

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/scattercache"
)

func small(seed uint64) *scattercache.ScatterCache {
	return scattercache.NewWithPolicy(cache.Geometry{SizeBytes: 4 * 1024, Ways: 4}, rng.New(seed), nil)
}

func TestBasicOperations(t *testing.T) {
	c := small(1)
	if c.NumLines() != 64 {
		t.Fatalf("NumLines = %d, want 64", c.NumLines())
	}
	if c.Lookup(5, false) {
		t.Fatal("cold lookup hit")
	}
	if v := c.Fill(5, cache.FillOpts{}); v.Valid() {
		t.Fatalf("fill into empty cache displaced %+v", v)
	}
	if !c.Probe(5) || !c.Lookup(5, true) {
		t.Fatal("line absent after fill")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", c.Occupancy())
	}
	// Refreshing a present line displaces nothing and keeps one copy.
	if v := c.Fill(5, cache.FillOpts{}); v.Valid() {
		t.Fatal("refresh displaced a line")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d after refresh, want 1", c.Occupancy())
	}
	if !c.Invalidate(5) {
		t.Fatal("invalidate missed a present line")
	}
	if c.Probe(5) || c.Occupancy() != 0 {
		t.Fatal("line survived invalidate")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 || st.Invalidates != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v", *st)
	}
	if st.Writebacks != 1 {
		t.Fatalf("dirty victim not counted as writeback: %+v", *st)
	}
}

// indexes returns the per-way set indexes of line l under the key set.
func indexes(skews []uint64, l mem.Line, sets int) []int {
	out := make([]int, len(skews))
	for w, skew := range skews {
		out[w] = scattercache.Index(skew, l, sets)
	}
	return out
}

// TestSkewsDifferPerWay: the per-way keys are distinct draws, and a line's
// candidate slots genuinely scatter (not all ways agree on one index).
func TestSkewsDifferPerWay(t *testing.T) {
	c := small(2)
	skews := c.Skews()
	for i := 0; i < len(skews); i++ {
		for j := i + 1; j < len(skews); j++ {
			if skews[i] == skews[j] {
				t.Fatalf("ways %d and %d share skew %#x", i, j, skews[i])
			}
		}
	}
	scattered := false
	for l := mem.Line(0); l < 64 && !scattered; l++ {
		idx := indexes(skews, l, 16)
		for _, v := range idx[1:] {
			if v != idx[0] {
				scattered = true
			}
		}
	}
	if !scattered {
		t.Fatal("every line maps to the same index in all ways: indexes are not skewed")
	}
}

// TestKeyedPlacementDiffersAcrossInstances: two instances with different
// keys place the same working set differently — the property that breaks
// address-based eviction-set construction.
func TestKeyedPlacementDiffersAcrossInstances(t *testing.T) {
	a, b := small(3), small(4)
	differs := false
	for l := mem.Line(0); l < 64; l++ {
		ia := indexes(a.Skews(), l, 16)
		ib := indexes(b.Skews(), l, 16)
		for w := range ia {
			if ia[w] != ib[w] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("different keys produced identical placements for 64 lines")
	}
}

// TestEvictionOnConflict: overfilling the cache evicts valid resident
// lines, each reported exactly once, and capacity is never exceeded.
func TestEvictionOnConflict(t *testing.T) {
	c := small(5)
	evicted := 0
	c.SetEvictionObserver(func(v cache.Victim) {
		if !v.Valid() {
			t.Fatal("observer got an invalid victim")
		}
		evicted++
	})
	for l := mem.Line(0); l < 256; l++ {
		c.Fill(l, cache.FillOpts{})
	}
	if c.Occupancy() > c.NumLines() {
		t.Fatalf("occupancy %d exceeds capacity %d", c.Occupancy(), c.NumLines())
	}
	if evicted == 0 {
		t.Fatal("4x overfill evicted nothing")
	}
	if uint64(evicted) != c.Stats().Evictions {
		t.Fatalf("%d callbacks for %d counted evictions", evicted, c.Stats().Evictions)
	}
}

// TestDeterministicReplay: same seed, same behaviour, including the random
// replacement way choices.
func TestDeterministicReplay(t *testing.T) {
	a, b := small(6), small(6)
	src := rng.New(9)
	for i := 0; i < 2048; i++ {
		l := mem.Line(src.Intn(256))
		if a.Lookup(l, false) != b.Lookup(l, false) {
			t.Fatalf("op %d: lookups diverged", i)
		}
		va, vb := a.Fill(l, cache.FillOpts{}), b.Fill(l, cache.FillOpts{})
		if va != vb {
			t.Fatalf("op %d: victims diverged: %+v vs %+v", i, va, vb)
		}
	}
}

// FuzzScatterIndex pins the index derivation's algebraic properties: it is
// a pure function of (skew, line, sets); results stay in range; and
// changing the key set moves at least one way's index for some line in any
// 64-line probe window (a degenerate hash that ignores its key fails this).
func FuzzScatterIndex(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(0), uint64(4))
	f.Add(uint64(0), uint64(1<<63), uint64(0xffffffffffffffff), uint64(1))
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(0x9e3779b97f4a7c16), uint64(42), uint64(10))
	f.Fuzz(func(t *testing.T, skew1, skew2, line, setsExp uint64) {
		sets := 1 << (1 + setsExp%10) // 2..1024, power of two
		l := mem.Line(line)

		// Determinism and range, per way.
		skewsA := deriveSkews(skew1)
		idx := indexes(skewsA, l, sets)
		again := indexes(skewsA, l, sets)
		for w := range idx {
			if idx[w] != again[w] {
				t.Fatalf("way %d: index not deterministic (%d vs %d)", w, idx[w], again[w])
			}
			if idx[w] < 0 || idx[w] >= sets {
				t.Fatalf("way %d: index %d outside [0,%d)", w, idx[w], sets)
			}
		}

		// Key sensitivity: a different key set must move >= 1 way index
		// somewhere in a 64-line window. rng.New remaps seed 0 to a fixed
		// constant, so canonicalize before deciding the keys differ.
		const zeroSeed = 0x9e3779b97f4a7c15
		if skew1 == 0 {
			skew1 = zeroSeed
		}
		if skew2 == 0 {
			skew2 = zeroSeed
		}
		if skew1 == skew2 {
			return
		}
		skewsB := deriveSkews(skew2)
		for probe := uint64(0); probe < 64; probe++ {
			pa := indexes(skewsA, l+mem.Line(probe), sets)
			pb := indexes(skewsB, l+mem.Line(probe), sets)
			for w := range pa {
				if pa[w] != pb[w] {
					return
				}
			}
		}
		t.Fatalf("key change %#x -> %#x moved no way index over a 64-line window", skew1, skew2)
	})
}

// deriveSkews expands one key into per-way keys the same way New draws
// them: consecutive outputs of a source seeded with the key.
func deriveSkews(key uint64) []uint64 {
	src := rng.New(key)
	skews := make([]uint64, 8)
	for w := range skews {
		skews[w] = src.Uint64()
	}
	return skews
}

func TestIndexPanicsOnBadSets(t *testing.T) {
	// Index panics on non-power-of-two set counts rather than silently
	// folding; the cache constructor enforces the same invariant.
	defer func() {
		if recover() == nil {
			t.Fatal("Index accepted sets=3")
		}
	}()
	scattercache.Index(1, 2, 3)
}

// TestPolicyParameterizedReplacement drives the stateful-policy path: with a
// non-random policy the victim way comes from the policy over the line's
// gathered candidate stamps (mutations scattered back), hits and fills feed
// the policy, and equal-seeded instances still replay identically.
func TestPolicyParameterizedReplacement(t *testing.T) {
	geom := cache.Geometry{SizeBytes: 4 * 1024, Ways: 4}
	for _, pol := range []cache.Policy{cache.LRU{}, cache.SRRIP{}, cache.PLRU{}} {
		a := scattercache.NewWithPolicy(geom, rng.New(9), pol)
		b := scattercache.NewWithPolicy(geom, rng.New(9), pol)
		src := rng.New(31)
		for i := 0; i < 2048; i++ {
			l := mem.Line(src.Intn(4 * a.NumLines()))
			if a.Lookup(l, false) != b.Lookup(l, false) {
				t.Fatalf("%s: op %d diverged between equal-seeded instances", pol, i)
			}
			if !a.Probe(l) {
				va, vb := a.Fill(l, cache.FillOpts{}), b.Fill(l, cache.FillOpts{})
				if va != vb {
					t.Fatalf("%s: op %d victims diverged: %+v vs %+v", pol, i, va, vb)
				}
			}
		}
		st := a.Stats()
		if *st != *b.Stats() {
			t.Fatalf("%s: stats diverged: %+v vs %+v", pol, *st, *b.Stats())
		}
		if st.Evictions == 0 {
			t.Fatalf("%s: eviction path never ran (fills %d)", pol, st.Fills)
		}
	}
}

// TestPolicyLRUPrefersColdCandidate: under the LRU policy, a line whose
// candidate slots were all just touched by other lines evicts the
// least-recently-touched candidate — observable as the hot line surviving a
// conflict fill that the cold one loses.
func TestPolicyLRUPrefersColdCandidate(t *testing.T) {
	geom := cache.Geometry{SizeBytes: 1024, Ways: 2}
	c := scattercache.NewWithPolicy(geom, rng.New(3), cache.LRU{})
	span := 8 * c.NumLines()
	// Warm the cache well past capacity, re-touching a small hot set often.
	src := rng.New(5)
	hot := []mem.Line{1, 2, 3}
	for i := 0; i < 4096; i++ {
		l := mem.Line(src.Intn(span))
		if i%4 == 0 {
			l = hot[i%3]
		}
		if !c.Lookup(l, false) {
			c.Fill(l, cache.FillOpts{})
		}
	}
	// The frequently re-touched lines should still be resident far more often
	// than chance occupancy of a 16-line cache over a 128-line span implies.
	resident := 0
	for _, l := range hot {
		if c.Probe(l) {
			resident++
		}
	}
	if resident == 0 {
		t.Fatal("no hot line resident under the LRU policy")
	}
}
