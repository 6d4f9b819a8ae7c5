package rpcache

import (
	"reflect"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// scanInvalidate is the reference clflush: a scan of the whole store that
// evicts the first valid line holding l. It returns the evicted line's
// index, or -1 when no line holds l.
func scanInvalidate(c *RPcache, l mem.Line) int {
	for i := range c.NumLines() {
		if t, ok := c.slots.Line(i); ok && t == l {
			c.slots.Invalidate(i)
			return i
		}
	}
	return -1
}

// checkPermInvariant fails unless every valid line of domain d and tag l
// sits in physical set perm[d][logicalSet(l)]: the property the indexed
// Invalidate relies on to look at one set per domain.
func checkPermInvariant(t *testing.T, c *RPcache, step int) {
	t.Helper()
	for i := range c.NumLines() {
		tag, ok := c.slots.Line(i)
		if want := int(c.perm[c.domain[i]][c.logicalSet(tag)]); ok && i/c.ways != want {
			t.Fatalf("step %d: line %d of domain %d in set %d, its permutation maps it to set %d",
				step, tag, c.domain[i], i/c.ways, want)
		}
	}
}

// sameStore reports whether twins' stores hold the same per-line
// arrays — tags, meta bits, fill offsets and policy stamps — which
// cache.Slots keeps unexported, so they are read by reflection.
func sameStore(t *testing.T, a, b *RPcache) bool {
	t.Helper()
	va, vb := reflect.ValueOf(&a.slots).Elem(), reflect.ValueOf(&b.slots).Elem()
	for _, name := range []string{"tags", "meta", "offsets", "stamps"} {
		fa, fb := va.FieldByName(name), vb.FieldByName(name)
		if !fa.IsValid() {
			t.Fatalf("cache.Slots has no field %s", name)
		}
		if fa.Len() != fb.Len() {
			return false
		}
		for i := range fa.Len() {
			x, y := fa.Index(i), fb.Index(i)
			if x.CanInt() && x.Int() != y.Int() || x.CanUint() && x.Uint() != y.Uint() {
				return false
			}
		}
	}
	return true
}

// validLines returns which lines of the store hold a line.
func validLines(c *RPcache) []bool {
	out := make([]bool, c.NumLines())
	for i := range out {
		out[i] = c.slots.Valid(i)
	}
	return out
}

// newPolicyCache builds a 4-set, 2-way RPcache under the named policy from
// its own source seeded with seed, so two calls build twins. Four sets
// make cross-domain deflections, and so permutation swaps, frequent.
func newPolicyCache(t *testing.T, name string, seed uint64) *RPcache {
	t.Helper()
	src := rng.New(seed)
	pol, err := cache.PolicyByName(name, src.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	return NewWithPolicy(cache.Geometry{SizeBytes: 8 * mem.LineSize, Ways: 2}, src, pol)
}

// TestInvalidateMatchesFullScan drives twin caches through the same random
// Lookup/Fill/Invalidate/Flush/SetActiveDomain sequence over all four
// domains and every policy, one clflushing through the permutation tables
// and the other through scanInvalidate, and requires the same return
// values, evicted lines, eviction-observer sequences, Stats, store contents
// and permutations. The line universe is small, so several domains often
// hold the same line in sets out of domain order: the case where evicting
// the first domain's copy would differ from the scan.
func TestInvalidateMatchesFullScan(t *testing.T) {
	outOfOrder, swaps := 0, 0
	for _, name := range cache.PolicyNames() {
		for seed := uint64(1); seed <= 3; seed++ {
			got := newPolicyCache(t, name, seed)
			want := newPolicyCache(t, name, seed)
			var gotEv, wantEv []cache.Victim
			got.SetEvictionObserver(func(v cache.Victim) { gotEv = append(gotEv, v) })
			want.SetEvictionObserver(func(v cache.Victim) { wantEv = append(wantEv, v) })
			ops := rng.New(seed ^ 0xc1f1)
			for step := 0; step < 3000; step++ {
				l := mem.Line(ops.Intn(16))
				switch op := ops.Intn(100); {
				case op < 25:
					write := ops.Intn(4) == 0
					if g, w := got.Lookup(l, write), want.Lookup(l, write); g != w {
						t.Fatalf("%s/%d step %d: Lookup(%d) = %v, scan twin %v", name, seed, step, l, g, w)
					}
				case op < 60:
					perm := got.perm[got.active][got.logicalSet(l)]
					opts := cache.FillOpts{Dirty: ops.Intn(3) == 0, Offset: int8(ops.Intn(5) - 2)}
					if g, w := got.Fill(l, opts), want.Fill(l, opts); g != w {
						t.Fatalf("%s/%d step %d: Fill(%d) = %+v, scan twin %+v", name, seed, step, l, g, w)
					}
					if got.perm[got.active][got.logicalSet(l)] != perm {
						swaps++
					}
				case op < 90:
					first := -1
					for d := range got.perm {
						set := got.set(int(got.perm[d][got.logicalSet(l)]))
						if w := got.slots.Find(set, l); w >= 0 {
							first = got.slots.Slot(set, w)
							break
						}
					}
					before := validLines(got)
					g := got.Invalidate(l)
					w := scanInvalidate(want, l)
					if g != (w >= 0) {
						t.Fatalf("%s/%d step %d: Invalidate(%d) = %v, scan evicted line %d", name, seed, step, l, g, w)
					}
					if i := evictedLine(before, validLines(got)); i != w {
						t.Fatalf("%s/%d step %d: Invalidate(%d) evicted line %d, scan evicted %d", name, seed, step, l, i, w)
					}
					if first != w {
						outOfOrder++
					}
				case op < 99:
					d := ops.Intn(MaxDomains)
					got.SetActiveDomain(d)
					want.SetActiveDomain(d)
				default:
					got.Flush()
					want.Flush()
				}
				if *got.Stats() != *want.Stats() {
					t.Fatalf("%s/%d step %d: stats %+v, scan twin %+v", name, seed, step, *got.Stats(), *want.Stats())
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("%s/%d step %d: eviction observer saw %v, scan twin %v", name, seed, step, gotEv, wantEv)
				}
				gotEv, wantEv = gotEv[:0], wantEv[:0]
				if !sameStore(t, got, want) || !reflect.DeepEqual(got.domain, want.domain) ||
					!reflect.DeepEqual(got.perm, want.perm) {
					t.Fatalf("%s/%d step %d: store differs from the scan twin", name, seed, step)
				}
				checkPermInvariant(t, got, step)
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no fill deflected: the permutation tables never changed")
	}
	if outOfOrder == 0 {
		t.Fatal("no clflush found the first domain's copy of a line above another copy: the sequence does not tell domain order from physical order")
	}
}

// evictedLine returns the one line valid in before and invalid in after, or
// -1 when none changed.
func evictedLine(before, after []bool) int {
	for i := range before {
		if before[i] && !after[i] {
			return i
		}
	}
	return -1
}
