package trace

import "randfill/internal/mem"

// Sink is the one output a trace generator writes its accesses through,
// so that one generator body builds either form of its trace. A Sink made
// by Pack packs each access into a Compiled, the form replay reads; any
// other Sink appends the mem.Access record, the form trace files and the
// record APIs return (packing drops the in-line byte offset they keep).
// The zero Sink appends records to an empty trace.
type Sink struct {
	ct      *Compiled // packs into ct when non-nil
	records mem.Trace
}

// Pack returns a Sink that appends to ct in packed form.
func Pack(ct *Compiled) Sink { return Sink{ct: ct} }

// Record returns a Sink that appends records to buf.
func Record(buf mem.Trace) Sink { return Sink{records: buf} }

// Records returns the trace a record Sink has built (nil for a packing
// Sink, whose trace is its Compiled).
func (s *Sink) Records() mem.Trace { return s.records }

// Add writes one access.
func (s *Sink) Add(a mem.Access) {
	if s.ct != nil {
		s.ct.add(a)
		return
	}
	s.records = append(s.records, a)
}

// Len returns the number of accesses the trace holds, including those it
// held before the Sink was made.
func (s *Sink) Len() int {
	if s.ct != nil {
		return s.ct.Len()
	}
	return len(s.records)
}

// Grow makes room for n more accesses in at most one allocation, so that
// a generator that knows its length builds its trace without the copies of
// growing it by appends. It sizes only the new part: the trace's length so
// far plus n.
func (s *Sink) Grow(n int) {
	if s.ct != nil {
		s.ct.words = grow(s.ct.words, n)
		return
	}
	s.records = grow(s.records, n)
}

// Truncate keeps the first n accesses: a generator that writes whole steps
// past its requested length cuts the trace back to it.
func (s *Sink) Truncate(n int) {
	if s.ct != nil {
		s.ct.truncate(n)
		return
	}
	s.records = s.records[:n]
}

// grow returns s with room for n more elements, reallocated to exactly
// len(s)+n when it has less (slices.Grow would round a regrowth up by
// append's growth factor).
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]E, 0, len(s)+n), s...)
}
