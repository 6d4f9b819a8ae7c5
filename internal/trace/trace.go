// Package trace holds memory traces in the packed form batch replay reads.
// A mem.Trace is a []mem.Access of 24-byte records; the per-access
// interpreter loops in internal/sim and internal/hierarchy are memory-bound
// on that stream — the three accounting lines at the top of Thread.Step
// dominated the replay profile purely because each iteration pulls a fresh
// 24-byte struct through the cache hierarchy (see DESIGN.md §12).
//
// A Compiled trace is a struct-of-arrays form: one packed 64-bit word per
// access carrying the cache-line number (the tag — set index and tag both
// derive from it with single-cycle masks), the read/write flag, the
// dependence and secret flags, and the leading non-memory instruction
// count. Batch replay then streams 8 bytes per access instead of 24 and
// re-derives nothing.
//
// Traces are packed where they are built: a generator writes each access
// through a Sink, which packs it straight into a Compiled (the form every
// experiment replays) or appends the record to a mem.Trace (the form trace
// files and the record APIs return), so one generator body builds both and
// no experiment holds a record stream. Compile and CompileInto pack a trace
// that already exists as records, such as one read from a trace file; both
// apply the same per-access packing rule as a Sink.
//
// The compiled form is exact at the granularity the simulators consume:
// every cache model and the timing simulator operate on Line(), Kind,
// Instructions(), Dependent and Secret, and At(i) reconstructs all five
// bit-for-bit (the intra-line byte offset, which no replay path reads, is
// not kept; accesses whose fields overflow the packed layout are stored as
// verbatim escape records on the side). A batched replay and a scalar
// replay of the same trace are therefore the same access sequence by
// construction.
// The property test in this package pins that equivalence over fuzzed
// geometries, and FuzzTraceCompile keeps it pinned under arbitrary inputs,
// for packing access by access as well as for CompileInto.
package trace

import (
	"slices"

	"randfill/internal/mem"
)

// Packed-word layout, least-significant bits first:
//
//	bits 0..48   cache-line number (49 bits)
//	bit  49      write
//	bit  50      dependent
//	bit  51      secret
//	bits 52..63  non-memory instruction count (12 bits)
//
// A nonmem field of escapeMark (all ones) marks an escape record: the line
// bits then hold an index into the escapes table, which stores the original
// mem.Access verbatim. Escapes are exact but slow (the batch loops decode
// them through At), which is the right trade: a 49-bit line number
// covers a 55-bit byte address space and 4094 non-memory instructions
// between accesses covers every trace generator in this repository, so
// escapes appear only in adversarial (fuzzed) inputs.
const (
	lineBits = 49
	lineMask = 1<<lineBits - 1

	flagWrite     = 1 << 49
	flagDependent = 1 << 50
	flagSecret    = 1 << 51

	nonMemShift = 52
	nonMemBits  = 12
	nonMemMax   = 1<<nonMemBits - 2 // largest packable NonMem value
	escapeMark  = 1<<nonMemBits - 1
)

// Compiled is a trace decoded for batch replay. The zero value is an empty
// trace; build one through a Sink made by Pack, or from records with
// Compile or CompileInto.
type Compiled struct {
	words   []uint64
	escapes []mem.Access
}

// Compile decodes t into its packed struct-of-arrays form.
func Compile(t mem.Trace) *Compiled {
	return CompileInto(new(Compiled), t)
}

// CompileInto decodes t into ct, reusing ct's backing arrays when they are
// large enough, and returns ct. Steady-state recompilation of same-length
// traces allocates nothing.
func CompileInto(ct *Compiled, t mem.Trace) *Compiled {
	ct.words = grow(ct.words[:0], len(t))
	ct.escapes = ct.escapes[:0]
	for _, a := range t {
		ct.add(a)
	}
	return ct
}

// add appends access a. It is the one packing rule: CompileInto applies it
// to every record of a trace, and a packing Sink to every access a
// generator writes.
func (ct *Compiled) add(a mem.Access) {
	line := a.Line()
	if uint64(line) > lineMask || a.NonMem > nonMemMax {
		ct.words = append(ct.words, ct.escape(a))
		return
	}
	w := uint64(line) | uint64(a.NonMem)<<nonMemShift
	if a.Kind == mem.Write {
		w |= flagWrite
	}
	if a.Dependent {
		w |= flagDependent
	}
	if a.Secret {
		w |= flagSecret
	}
	ct.words = append(ct.words, w)
}

// escape stores a verbatim as an escape record and returns the word that
// refers to it.
func (ct *Compiled) escape(a mem.Access) uint64 {
	ct.escapes = append(ct.escapes, a)
	return uint64(len(ct.escapes)-1) | escapeMark<<nonMemShift
}

// truncate keeps the first n accesses, and only the escape records their
// words refer to. A trace packed access by access stores its escapes in
// word order, so truncating it leaves exactly the escapes CompileInto gives
// its first n records.
func (ct *Compiled) truncate(n int) {
	dropped := ct.words[n:]
	ct.words = ct.words[:n]
	if !slices.ContainsFunc(dropped, IsEscape) {
		return
	}
	keep := 0
	for _, w := range ct.words {
		if IsEscape(w) {
			keep = max(keep, int(w&lineMask)+1)
		}
	}
	ct.escapes = ct.escapes[:keep]
}

// Len returns the number of accesses in the compiled trace.
func (ct *Compiled) Len() int { return len(ct.words) }

// At reconstructs access i as a mem.Access record. For packed records the
// reconstruction is exact up to the line granularity the simulators operate
// at: the address is the first byte of the access's cache line (every cache
// model consumes Line(), never the in-line offset). Escape records are
// returned verbatim, byte offset included.
func (ct *Compiled) At(i int) mem.Access {
	w := ct.words[i]
	if w>>nonMemShift == escapeMark {
		return ct.escapes[w&lineMask]
	}
	a := mem.Access{
		Addr:      mem.AddrOf(mem.Line(w & lineMask)),
		NonMem:    uint32(w >> nonMemShift),
		Dependent: w&flagDependent != 0,
		Secret:    w&flagSecret != 0,
	}
	if w&flagWrite != 0 {
		a.Kind = mem.Write
	}
	return a
}

// SetAddr rewrites access i's address in place, keeping its other fields:
// the collision attack patches one compiled encryption template with each
// sample's table lookups instead of re-tracing and re-compiling the block.
// A packed record keeps the new address's line (At drops the in-line
// offset, as CompileInto does); an escape record stores it verbatim. A line
// beyond the packed range turns the record into an escape, as CompileInto
// would have stored it.
func (ct *Compiled) SetAddr(i int, addr mem.Addr) {
	w := ct.words[i]
	if IsEscape(w) {
		ct.escapes[w&lineMask].Addr = addr
		return
	}
	line := mem.LineOf(addr)
	if uint64(line) > lineMask {
		a := ct.At(i)
		a.Addr = addr
		ct.words[i] = ct.escape(a)
		return
	}
	ct.words[i] = w&^lineMask | uint64(line)
}

// Words exposes the packed word stream for the replay hot loops, which
// decode each word with the exported helpers below; an escape record
// (IsEscape) must be resolved through At instead. The slice is the
// compiled trace's backing array: callers must treat it as read-only.
func (ct *Compiled) Words() []uint64 { return ct.words }

// IsEscape reports whether packed word w is an escape record.
func IsEscape(w uint64) bool { return w>>nonMemShift == escapeMark }

// Line returns the cache-line number of packed (non-escape) word w.
func Line(w uint64) mem.Line { return mem.Line(w & lineMask) }

// Write reports the write flag of packed word w.
func Write(w uint64) bool { return w&flagWrite != 0 }

// Dependent reports the dependence flag of packed word w.
func Dependent(w uint64) bool { return w&flagDependent != 0 }

// Secret reports the secret flag of packed word w.
func Secret(w uint64) bool { return w&flagSecret != 0 }

// Instructions returns the instruction count packed word w represents: its
// leading non-memory instructions plus the memory operation itself
// (mem.Access.Instructions).
func Instructions(w uint64) uint64 { return (w >> nonMemShift) + 1 }
