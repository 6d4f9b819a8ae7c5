package cache

import (
	"testing"
	"testing/quick"

	"randfill/internal/mem"
	"randfill/internal/rng"
)

// refCache is an obviously-correct reference model of a set-associative
// LRU cache with PLcache lock bits: one explicit recency-ordered slice per
// set. The victim is the least recently used unlocked line, and a fill into
// a full set whose lines are all locked is refused. The property tests
// drive SetAssoc and refCache with identical random operation sequences and
// require identical observable behaviour.
type refCache struct {
	sets int
	ways int
	// order[s] holds the lines of set s, most recently used first.
	order  [][]mem.Line
	dirty  map[mem.Line]bool
	locked map[mem.Line]bool
}

func newRef(sets, ways int) *refCache {
	return &refCache{
		sets:   sets,
		ways:   ways,
		order:  make([][]mem.Line, sets),
		dirty:  make(map[mem.Line]bool),
		locked: make(map[mem.Line]bool),
	}
}

func (r *refCache) setOf(l mem.Line) int { return int(uint64(l) & uint64(r.sets-1)) }

func (r *refCache) indexIn(s []mem.Line, l mem.Line) int {
	for i, x := range s {
		if x == l {
			return i
		}
	}
	return -1
}

func (r *refCache) lookup(l mem.Line, write bool) bool {
	si := r.setOf(l)
	s := r.order[si]
	i := r.indexIn(s, l)
	if i < 0 {
		return false
	}
	// Move to front (MRU).
	copy(s[1:i+1], s[:i])
	s[0] = l
	if write {
		r.dirty[l] = true
	}
	return true
}

func (r *refCache) probe(l mem.Line) bool {
	return r.indexIn(r.order[r.setOf(l)], l) >= 0
}

// fill installs l (locking it when lock is set) and returns the evicted
// line, whether it was dirty, whether an eviction happened at all, and
// whether the fill was refused because every line of the full set is
// locked.
func (r *refCache) fill(l mem.Line, dirty, lock bool) (victim mem.Line, victimDirty, evicted, refused bool) {
	si := r.setOf(l)
	s := r.order[si]
	if i := r.indexIn(s, l); i >= 0 {
		copy(s[1:i+1], s[:i])
		s[0] = l
		if dirty {
			r.dirty[l] = true
		}
		if lock {
			r.locked[l] = true
		}
		return 0, false, false, false
	}
	if len(s) == r.ways {
		i := len(s) - 1
		for i >= 0 && r.locked[s[i]] {
			i--
		}
		if i < 0 {
			return 0, false, false, true
		}
		victim = s[i]
		victimDirty = r.dirty[victim]
		s = append(s[:i], s[i+1:]...)
		delete(r.dirty, victim)
		evicted = true
	}
	r.order[si] = append([]mem.Line{l}, s...)
	if dirty {
		r.dirty[l] = true
	}
	if lock {
		r.locked[l] = true
	}
	return victim, victimDirty, evicted, false
}

func (r *refCache) invalidate(l mem.Line) bool {
	si := r.setOf(l)
	s := r.order[si]
	i := r.indexIn(s, l)
	if i < 0 {
		return false
	}
	r.order[si] = append(s[:i], s[i+1:]...)
	delete(r.dirty, l)
	delete(r.locked, l)
	return true
}

// op encodes one random cache operation.
type op struct {
	Kind byte // lookup, fill, probe, invalidate
	Line uint16
	Bit  bool // write flag / dirty flag
}

// TestSetAssocMatchesReferenceModel drives both implementations with the
// same random operation sequence and checks every observable result:
// lookup hits, probe results, fill victims and refusals, invalidation
// results, and the final contents and lock bits. One fill in four is a
// locking fill. The SetAssoc side runs twice: as a new cache, and as one
// that first ran a random prefix (usedThenReset) and was then Reset.
func TestSetAssocMatchesReferenceModel(t *testing.T) {
	g := Geometry{SizeBytes: 1024, Ways: 2} // 8 sets x 2 ways
	f := func(prefix, ops []op) bool {
		return matchesRef(t, NewSetAssoc(g, LRU{}), ops) &&
			matchesRef(t, usedThenReset(g, Random{Src: rng.New(3)}, prefix, LRU{}), ops)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// matchesRef runs ops on c, an empty 8-set 2-way LRU cache, and on a new
// reference model, and reports whether every observable result agreed.
func matchesRef(t *testing.T, c *SetAssoc, ops []op) bool {
	r := newRef(8, 2)
	for _, o := range ops {
		l := mem.Line(o.Line % 64)
		switch o.Kind % 4 {
		case 0:
			if c.Lookup(l, o.Bit) != r.lookup(l, o.Bit) {
				t.Logf("lookup(%d) diverged", l)
				return false
			}
		case 1:
			lock := o.Kind/4%4 == 0
			v := c.Fill(l, FillOpts{Dirty: o.Bit, Lock: lock})
			rv, _, rev, rref := r.fill(l, o.Bit, lock)
			if v.Refused() != rref {
				t.Logf("fill(%d): refusal diverged (%v vs %v)", l, v.Refused(), rref)
				return false
			}
			if v.Valid() != rev {
				t.Logf("fill(%d): eviction presence diverged (%v vs %v)", l, v.Valid(), rev)
				return false
			}
			if rev && v.Line != rv {
				t.Logf("fill(%d): victim diverged (%d vs %d)", l, v.Line, rv)
				return false
			}
		case 2:
			if c.Probe(l) != r.probe(l) {
				t.Logf("probe(%d) diverged", l)
				return false
			}
		case 3:
			if c.Invalidate(l) != r.invalidate(l) {
				t.Logf("invalidate(%d) diverged", l)
				return false
			}
		}
	}
	// Final contents must agree exactly.
	want := map[mem.Line]bool{}
	for _, s := range r.order {
		for _, l := range s {
			want[l] = true
		}
	}
	got := c.Contents()
	if len(got) != len(want) {
		t.Logf("contents size diverged: %d vs %d", len(got), len(want))
		return false
	}
	for _, l := range got {
		if !want[l] {
			t.Logf("contents diverged at line %d", l)
			return false
		}
		if c.IsLocked(l) != r.locked[l] {
			t.Logf("lock bit of line %d diverged", l)
			return false
		}
	}
	if c.slots.locked != len(r.locked) {
		t.Logf("locked-line count %d, want %d", c.slots.locked, len(r.locked))
		return false
	}
	return true
}

// TestSetAssocDirtyMatchesReference checks write-back state: victims'
// dirty bits must agree with the reference across random sequences of
// lookups (with write flags) and fills.
func TestSetAssocDirtyMatchesReference(t *testing.T) {
	f := func(ops []op) bool {
		c := NewSetAssoc(Geometry{SizeBytes: 512, Ways: 2}, LRU{})
		r := newRef(4, 2)
		for _, o := range ops {
			l := mem.Line(o.Line % 32)
			switch o.Kind % 2 {
			case 0:
				if c.Lookup(l, o.Bit) != r.lookup(l, o.Bit) {
					return false
				}
			case 1:
				v := c.Fill(l, FillOpts{Dirty: o.Bit})
				rv, rdirty, rev, _ := r.fill(l, o.Bit, false)
				if v.Valid() != rev {
					return false
				}
				if rev && (v.Line != rv || v.Dirty() != rdirty) {
					t.Logf("victim %d dirty=%v, want %d dirty=%v", v.Line, v.Dirty(), rv, rdirty)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
