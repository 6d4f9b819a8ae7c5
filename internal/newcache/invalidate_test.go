package newcache

import (
	"reflect"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// scanInvalidate is the reference clflush: a scan of the whole physical
// store that evicts the first valid line holding l. It returns the evicted
// slot, or -1 when no line holds l.
func scanInvalidate(c *Newcache, l mem.Line) int {
	for p := range c.lines {
		if c.lines[p].valid && c.lines[p].tag == l {
			c.stats.Invalidates++
			c.evict(p)
			return p
		}
	}
	return -1
}

// checkRemapInvariant fails unless every valid physical line p is mapped by
// its own domain's table, remaps[domain][lidx] == p: the property the
// indexed Invalidate relies on to look at one slot per domain.
func checkRemapInvariant(t *testing.T, c *Newcache, step int) {
	t.Helper()
	for p, ln := range c.lines {
		if ln.valid && c.remaps[ln.domain][ln.lidx] != int32(p) {
			t.Fatalf("step %d: valid line %d (tag %d, domain %d, lidx %d) but remaps[%d][%d] = %d",
				step, p, ln.tag, ln.domain, ln.lidx, ln.domain, ln.lidx, c.remaps[ln.domain][ln.lidx])
		}
	}
}

// newPolicyCache builds a 16-line Newcache (k=2) under the named policy
// from its own source seeded with seed, so two calls build twins.
func newPolicyCache(t *testing.T, name string, seed uint64) *Newcache {
	t.Helper()
	src := rng.New(seed)
	pol, err := cache.PolicyByName(name, src.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	return NewWithPolicy(1024, 2, src, pol)
}

// TestInvalidateMatchesFullScan drives twin caches through the same random
// Lookup/Fill/Invalidate/Flush/SetActiveDomain sequence over all four
// domains and every policy, one clflushing through the remapping tables and
// the other through scanInvalidate, and requires the same return values,
// evicted slots, eviction-observer sequences, Stats and store contents.
// The line universe is small, so several domains often hold the same line
// at physical slots out of domain order: the case where evicting the first
// domain's copy would differ from the scan.
func TestInvalidateMatchesFullScan(t *testing.T) {
	outOfOrder := 0
	for _, name := range cache.PolicyNames() {
		for seed := uint64(1); seed <= 3; seed++ {
			got := newPolicyCache(t, name, seed)
			want := newPolicyCache(t, name, seed)
			var gotEv, wantEv []cache.Victim
			got.SetEvictionObserver(func(v cache.Victim) { gotEv = append(gotEv, v) })
			want.SetEvictionObserver(func(v cache.Victim) { wantEv = append(wantEv, v) })
			ops := rng.New(seed ^ 0xc1f1)
			for step := 0; step < 3000; step++ {
				l := mem.Line(ops.Intn(24))
				switch op := ops.Intn(100); {
				case op < 25:
					write := ops.Intn(4) == 0
					if g, w := got.Lookup(l, write), want.Lookup(l, write); g != w {
						t.Fatalf("%s/%d step %d: Lookup(%d) = %v, scan twin %v", name, seed, step, l, g, w)
					}
				case op < 60:
					opts := cache.FillOpts{Dirty: ops.Intn(3) == 0, Offset: int8(ops.Intn(5) - 2)}
					if g, w := got.Fill(l, opts), want.Fill(l, opts); g != w {
						t.Fatalf("%s/%d step %d: Fill(%d) = %+v, scan twin %+v", name, seed, step, l, g, w)
					}
				case op < 90:
					holders, first := 0, -1
					for d := range got.remaps {
						if p := got.remaps[d][got.LogicalIndex(l)]; p >= 0 && got.lines[p].valid && got.lines[p].tag == l {
							holders++
							if first < 0 {
								first = int(p)
							}
						}
					}
					before := append([]ncLine(nil), got.lines...)
					g := got.Invalidate(l)
					w := scanInvalidate(want, l)
					if g != (w >= 0) {
						t.Fatalf("%s/%d step %d: Invalidate(%d) = %v, scan evicted slot %d", name, seed, step, l, g, w)
					}
					if slot := evictedSlot(before, got.lines); slot != w {
						t.Fatalf("%s/%d step %d: Invalidate(%d) evicted slot %d, scan evicted %d", name, seed, step, l, slot, w)
					}
					if holders > 1 && first != w {
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
				if !reflect.DeepEqual(got.lines, want.lines) || !reflect.DeepEqual(got.remaps, want.remaps) ||
					!reflect.DeepEqual(got.stamps, want.stamps) {
					t.Fatalf("%s/%d step %d: store differs from the scan twin", name, seed, step)
				}
				checkRemapInvariant(t, got, step)
			}
		}
	}
	if outOfOrder == 0 {
		t.Fatal("no clflush found the first domain's copy of a line above another domain's: the sequence does not tell domain order from physical order")
	}
}

// evictedSlot returns the one slot valid in before and invalid in after, or
// -1 when none changed.
func evictedSlot(before, after []ncLine) int {
	for p := range before {
		if before[p].valid && !after[p].valid {
			return p
		}
	}
	return -1
}
