package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"randfill/internal/mem"
	"randfill/internal/rng"
)

// mixOp applies one operation of the reset tests' random mix to c and
// returns what it observed: a lookup or probe result, an invalidation
// result, or a fill's victim record. Kind picks the operation, the owner
// (0-2) and, for one fill in four, a locking fill.
func mixOp(c *SetAssoc, o op) any {
	l := mem.Line(o.Line % 64)
	owner := int(o.Kind / 8 % 3)
	switch o.Kind % 8 {
	case 0, 1:
		return c.Lookup(l, o.Bit)
	case 2, 3, 4:
		return c.Fill(l, FillOpts{Dirty: o.Bit, Lock: o.Kind/32%4 == 0, Owner: owner, Offset: int8(o.Line % 7)})
	case 5:
		return c.Probe(l)
	default:
		return c.Invalidate(l)
	}
}

// usedThenReset returns a cache of geometry g that ran ops under used —
// with way masks for owners 0 and 1, an eviction observer and the mix's
// locking fills — and was then Reset(pol).
func usedThenReset(g Geometry, used Policy, ops []op, pol Policy) *SetAssoc {
	c := NewSetAssoc(g, used)
	c.RestrictWays([]uint64{0b0011, 0b1100}, 0b0111)
	c.SetEvictionObserver(func(Victim) {})
	for _, o := range ops {
		mixOp(c, o)
	}
	c.Reset(pol)
	return c
}

// TestResetMatchesNew: a cache that ran a random op mix and was then Reset
// holds exactly the state NewSetAssoc builds (every field, the policy's own
// state included), and from then on behaves exactly like the new cache over
// a fresh op mix: same lookups, probes, invalidations, victims and
// refusals, then the same Stats, contents and lock bits. It runs under
// every policy; the used cache runs the same policy on another stream.
func TestResetMatchesNew(t *testing.T) {
	g := Geometry{SizeBytes: 8 * 4 * mem.LineSize, Ways: 4} // 8 sets x 4 ways
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			pol := func(seed uint64) Policy {
				var src *rng.Source
				if PolicyNeedsRNG(name) {
					src = rng.New(seed)
				}
				p, err := PolicyByName(name, src)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			f := func(prefix, ops []op) bool {
				fresh := NewSetAssoc(g, pol(5))
				reset := usedThenReset(g, pol(6), prefix, pol(5))
				if !reflect.DeepEqual(*fresh, *reset) {
					t.Logf("state after Reset:\n %+v\nwant the new cache's\n %+v", *reset, *fresh)
					return false
				}
				for i, o := range ops {
					if got, want := mixOp(reset, o), mixOp(fresh, o); got != want {
						t.Logf("op %d %+v: reset cache saw %+v, new cache %+v", i, o, got, want)
						return false
					}
				}
				if *reset.Stats() != *fresh.Stats() {
					t.Logf("stats %+v, want %+v", *reset.Stats(), *fresh.Stats())
					return false
				}
				if got, want := reset.Contents(), fresh.Contents(); !reflect.DeepEqual(got, want) {
					t.Logf("contents %v, want %v", got, want)
					return false
				}
				for _, l := range fresh.Contents() {
					if reset.IsLocked(l) != fresh.IsLocked(l) {
						t.Logf("lock bit of line %d diverged", l)
						return false
					}
				}
				return reset.slots.locked == fresh.slots.locked
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
