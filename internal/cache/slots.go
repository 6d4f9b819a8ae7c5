package cache

import (
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// Per-slot metadata bits (see the Slots field comments). Valid is not a
// bit: a slot is valid iff its tag is not invalidTag.
const (
	metaDirty uint8 = 1 << iota
	metaReferenced
	metaLocked
)

// invalidTag marks an empty slot in the tags array. Real line numbers are
// byte addresses shifted right by mem.LineShift, so the all-ones value can
// never collide with a reachable line; using a sentinel instead of a valid
// bit lets the hot probe compare tags alone, with no second flag load and no
// way for a stale tag to alias a probed line (see DESIGN.md §12).
const invalidTag = ^mem.Line(0)

// Slots is the line store every cache in this repository keeps its lines
// in. A design decides only where a line may live — SetAssoc's set index,
// Newcache's remapping tables, RPcache's permutations, ScatterCache's
// skews, MIRAGE's tag map — and which slot is evicted; Slots does what a
// slot does the same way in every design: the hit, refresh and install
// bookkeeping, the eviction's victim record, counters and observer
// callback, Flush, Occupancy, Contents, and the replacement-policy dispatch.
//
// Per-slot state is struct-of-arrays: the tags array is the only state a
// hit probe touches (one contiguous cache line per 8 slots), the meta array
// carries the dirty/referenced/locked bits, and replacement-policy state
// lives in stamps, a parallel array the policy operates on as a per-Set
// subslice (the stamp double-copy used to dominate the Lookup profile; see
// DESIGN.md §7, §12).
//
// Designs hold a Slots in an unexported field and forward the Cache
// methods they share with it, so the slot operations never join a design's
// own method set.
type Slots struct {
	tags    []mem.Line // invalidTag = empty slot
	meta    []uint8    // dirty/referenced/locked bits, parallel to tags
	offsets []int8     // fill-offset tags, parallel to tags
	stamps  []uint64   // replacement-policy state, parallel to tags
	// scattered lists the slots of the Scattered set, and gathered holds
	// their stamps while the policy works on them.
	scattered []int
	gathered  []uint64

	policy Policy
	// lru and random devirtualize the two most common policies on the hit,
	// fill and victim paths, with identical results and RNG draws: LRU's
	// stamp write and oldest-way scan, and Random's draw from random (its
	// source). Random keeps no per-slot state, so its hit and fill events
	// are skipped entirely.
	lru    bool
	random *rng.Source
	tick   uint64
	stats  Stats
	onEv   EvictionObserver
	// teardown, when non-nil, is the design's index teardown: Evict calls
	// it with the slot and its line after the eviction observer and before
	// the slot empties.
	teardown func(i int, l mem.Line)

	// locked counts the valid slots whose lock bit is set. While it is
	// zero no slot is locked, and SetAssoc's victim skips the lock scan.
	locked int
}

// Set is the group of slots one replacement decision ranges over, its n
// ways numbered from 0: the n slots from lo on (a Range), or — when lo is
// negative — the slots the store's Scattered list names. The policy sees a
// set's stamp words as one contiguous subslice; a scattered set's are
// gathered into a scratch copy for it and written back after. A Set is two
// words so that it travels in registers on the hit path.
type Set struct{ lo, n int }

// Range returns the set of the n slots from lo on: a SetAssoc or RPcache
// set, or a whole fully-associative store.
func Range(lo, n int) Set { return Set{lo: lo, n: n} }

// Scattered returns the set whose way w is slot slots[w]: ScatterCache's
// skewed candidates, one slot per way. The store keeps slots, not a copy,
// so a design that rewrites the list in place before each operation calls
// Scattered once.
func (s *Slots) Scattered(slots []int) Set {
	s.scattered = slots
	s.gathered = make([]uint64, len(slots))
	return Set{lo: -1, n: len(slots)}
}

// Slot returns the slot of way w of set.
func (s *Slots) Slot(set Set, w int) int {
	if set.lo < 0 {
		return s.scattered[w]
	}
	return set.lo + w
}

// NewSlots returns a store of n empty slots under policy (nil selects
// LRU), with the design's index teardown (nil: none; see the teardown
// field). It panics on a policy PolicyValid rejects.
func NewSlots(n int, policy Policy, teardown func(i int, l mem.Line)) Slots {
	s := Slots{
		tags:     make([]mem.Line, n),
		meta:     make([]uint8, n),
		offsets:  make([]int8, n),
		stamps:   make([]uint64, n),
		teardown: teardown,
	}
	s.Reset(policy)
	return s
}

// Reset empties the store in place and replaces its policy (nil selects
// LRU), leaving exactly the state NewSlots builds with the same teardown:
// every slot empty, the metadata, offset and stamp words zero, the tick,
// statistics and lock count zero, and no eviction observer. The arrays are
// kept, so a reset allocates nothing.
func (s *Slots) Reset(policy Policy) {
	if policy == nil {
		policy = LRU{}
	}
	if err := PolicyValid(policy); err != nil {
		panic(err)
	}
	for i := range s.tags {
		s.tags[i] = invalidTag
	}
	clear(s.meta)
	clear(s.offsets)
	clear(s.stamps)
	_, lru := policy.(LRU)
	var random *rng.Source
	if r, ok := policy.(Random); ok {
		random = r.Src
	}
	*s = Slots{
		tags:      s.tags,
		meta:      s.meta,
		offsets:   s.offsets,
		stamps:    s.stamps,
		scattered: s.scattered,
		gathered:  s.gathered,
		policy:    policy,
		lru:       lru,
		random:    random,
		teardown:  s.teardown,
	}
}

// NumLines returns the slot count.
func (s *Slots) NumLines() int { return len(s.tags) }

// Stats returns the live statistics counters.
func (s *Slots) Stats() *Stats { return &s.stats }

// SetEvictionObserver registers fn to receive every evicted line, and
// every valid line DrainValid reports.
func (s *Slots) SetEvictionObserver(fn EvictionObserver) { s.onEv = fn }

// Valid reports whether slot i holds a line.
func (s *Slots) Valid(i int) bool { return s.tags[i] != invalidTag }

// Line returns the line slot i holds, and false when it is empty.
func (s *Slots) Line(i int) (mem.Line, bool) { return s.tags[i], s.tags[i] != invalidTag }

// findIn returns the way of the n contiguous slots from lo that holds line
// l, or -1. Only the tags are consulted: empty slots hold invalidTag, which
// no reachable line number can equal.
func (s *Slots) findIn(lo, n int, l mem.Line) int {
	tags := s.tags[lo : lo+n]
	for w := range tags {
		if tags[w] == l {
			return w
		}
	}
	return -1
}

// Find returns the way of set that holds line l, or -1.
func (s *Slots) Find(set Set, l mem.Line) int {
	if set.lo >= 0 {
		return s.findIn(set.lo, set.n, l)
	}
	for w, i := range s.scattered {
		if s.tags[i] == l {
			return w
		}
	}
	return -1
}

// Empty returns the first way of set whose slot is empty, or -1.
func (s *Slots) Empty(set Set) int { return s.Find(set, invalidTag) }

// Access counts a demand lookup whose line is in way w of set, or absent
// when w < 0, and reports whether it hit. A hit counts in Hits, sets the
// slot's referenced bit (and dirty bit for a write) and is the policy's hit
// event; a miss changes nothing but Misses. Access is small enough to
// inline, so a miss costs no call.
func (s *Slots) Access(set Set, w int, write bool) bool {
	if w < 0 {
		s.stats.Misses++
		return false
	}
	s.hit(set, w, write)
	return true
}

// hit is Access's hit path.
func (s *Slots) hit(set Set, w int, write bool) {
	i := s.Slot(set, w)
	s.stats.Hits++
	s.tick++
	m := s.meta[i] | metaReferenced
	if write {
		m |= metaDirty
	}
	s.meta[i] = m
	s.touch(set, w, i, false)
}

// Refresh is a fill of the line way w of set already holds: it installs
// nothing and displaces nothing, but ORs in opts' dirty and lock bits and is
// the policy's fill event.
func (s *Slots) Refresh(set Set, w int, opts FillOpts) {
	i := s.Slot(set, w)
	s.tick++
	if opts.Dirty {
		s.meta[i] |= metaDirty
	}
	if opts.Lock {
		if s.meta[i]&metaLocked == 0 {
			s.locked++
		}
		s.meta[i] |= metaLocked
	}
	s.touch(set, w, i, true)
}

// Install puts line l into way w of set, whose slot must be empty, with
// opts' dirty and lock bits and fill offset: it counts in Fills and is the
// policy's fill event. A design that evicts to make room calls Evict
// first and returns its record; the two calls stay separate because some
// designs do index work between them (MIRAGE's free list takes the evicted
// slot, RPcache deflects into another set and invalidates there).
func (s *Slots) Install(set Set, w int, l mem.Line, opts FillOpts) {
	i := s.Slot(set, w)
	s.stats.Fills++
	s.tick++
	s.tags[i] = l
	m := uint8(0)
	if opts.Dirty {
		m |= metaDirty
	}
	if opts.Lock {
		m |= metaLocked
		s.locked++
	}
	s.meta[i] = m
	s.offsets[i] = opts.Offset
	// The slot's stamp word is deliberately NOT cleared here: the fill
	// event rewrites whatever the policy needs, and for PLRU the per-set
	// stamp words hold shared tree bits that must survive installs.
	s.touch(set, w, i, true)
}

// touch is the policy's hit or fill event on way w of set, whose slot is
// i. It is small enough to inline into the hit path. Random keeps no state:
// its OnHit and OnFill do nothing, so random skips the event.
func (s *Slots) touch(set Set, w, i int, fill bool) {
	if s.lru {
		s.stamps[i] = s.tick
	} else if s.random == nil {
		s.event(set, w, fill)
	}
}

// event hands a hit or fill of way w to the policy, over set's stamps.
func (s *Slots) event(set Set, w int, fill bool) {
	st := s.view(set)
	if fill {
		s.policy.OnFill(st, w, s.tick)
	} else {
		s.policy.OnHit(st, w, s.tick)
	}
	s.writeBack(set, st)
}

// Victim returns the policy's victim way of set. The policy may age the
// set's stamps (RRIP) and draw from its source (random), exactly as its
// Victim does.
func (s *Slots) Victim(set Set) int {
	if s.random != nil {
		return s.random.Intn(set.n) // == Random.Victim over the set
	}
	st := s.view(set)
	var w int
	if s.lru {
		w = oldest(st)
	} else {
		w = s.policy.Victim(st)
	}
	s.writeBack(set, st)
	return w
}

// view returns set's stamp words as one slice: the live subslice of a
// Range, or a gathered copy of the Scattered set's, which writeBack stores.
func (s *Slots) view(set Set) []uint64 {
	if set.lo >= 0 {
		return s.stamps[set.lo : set.lo+set.n]
	}
	for w, i := range s.scattered {
		s.gathered[w] = s.stamps[i]
	}
	return s.gathered
}

// writeBack stores the Scattered set's gathered stamps st, which the
// policy may have changed; a Range's view is the live state already.
func (s *Slots) writeBack(set Set, st []uint64) {
	if set.lo >= 0 {
		return
	}
	for w, i := range s.scattered {
		s.stamps[i] = st[w]
	}
}

// record returns slot i's line as an eviction reports it: the meta byte's
// dirty and referenced bits are the Victim's, under one mask.
func (s *Slots) record(i int) Victim {
	return Victim{
		Line:   s.tags[i],
		Offset: s.offsets[i],
		flags:  s.meta[i]&(metaDirty|metaReferenced) | victimValid,
	}
}

// Evict empties slot i, which must hold a line, and returns its victim
// record: the eviction counts in Evictions (and Writebacks when dirty), the
// eviction observer sees it, and the design's teardown runs before the
// slot empties.
func (s *Slots) Evict(i int) Victim {
	v := s.record(i)
	s.stats.Evictions++
	if v.Dirty() {
		s.stats.Writebacks++
	}
	if s.meta[i]&metaLocked != 0 {
		s.locked--
	}
	if s.onEv != nil {
		s.onEv(v)
	}
	if s.teardown != nil {
		s.teardown(i, v.Line)
	}
	s.tags[i] = invalidTag
	return v
}

// Invalidate evicts slot i, which must hold a line, as a clflush does: an
// Evict that also counts in Invalidates.
func (s *Slots) Invalidate(i int) {
	s.stats.Invalidates++
	s.Evict(i)
}

// Flush invalidates every valid slot, in slot order.
func (s *Slots) Flush() {
	for i := range s.tags {
		if s.tags[i] != invalidTag {
			s.Invalidate(i)
		}
	}
}

// Occupancy returns the number of valid slots. It is a pure observer (no
// replacement-state or counter updates): the occupancy-channel attacks read
// it as ground truth for the victim footprint an attacker estimates.
func (s *Slots) Occupancy() int {
	n := 0
	for i := range s.tags {
		if s.tags[i] != invalidTag {
			n++
		}
	}
	return n
}

// Contents returns the lines of all valid slots, in slot order.
func (s *Slots) Contents() []mem.Line {
	var out []mem.Line
	for i := range s.tags {
		if s.tags[i] != invalidTag {
			out = append(out, s.tags[i])
		}
	}
	return out
}

// DrainValid reports every valid slot's line to the eviction observer, in
// slot order, without evicting it. The spatial-locality profiler calls it
// at end of run so never-evicted lines are counted in the Eff(d)
// denominator.
func (s *Slots) DrainValid() {
	if s.onEv == nil {
		return
	}
	for i := range s.tags {
		if s.tags[i] != invalidTag {
			s.onEv(s.record(i))
		}
	}
}
