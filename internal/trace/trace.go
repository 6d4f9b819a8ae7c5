// Package trace precompiles memory traces for batch replay. A mem.Trace is
// a []mem.Access of 24-byte records; the per-access interpreter loops in
// internal/sim and internal/hierarchy are memory-bound on that stream — the
// three accounting lines at the top of Thread.Step dominated the replay
// profile purely because each iteration pulls a fresh 24-byte struct through
// the cache hierarchy (see DESIGN.md §12).
//
// Compile decodes a trace once into a struct-of-arrays form: one packed
// 64-bit word per access carrying the cache-line number (the tag — set
// index and tag both derive from it with single-cycle masks), the
// read/write flag, the dependence and secret flags, and the leading
// non-memory instruction count. Batch replay then streams 8 bytes per
// access instead of 24 and re-derives nothing.
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
// geometries, and FuzzTraceCompile keeps it pinned under arbitrary inputs.
package trace

import "randfill/internal/mem"

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
// trace; build one with Compile or CompileInto.
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
// traces (the collision attack compiles one fresh single-block trace per
// measurement) allocates nothing.
func CompileInto(ct *Compiled, t mem.Trace) *Compiled {
	if cap(ct.words) < len(t) {
		ct.words = make([]uint64, len(t))
	}
	ct.words = ct.words[:len(t)]
	ct.escapes = ct.escapes[:0]
	for i, a := range t {
		line := a.Line()
		if uint64(line) > lineMask || a.NonMem > nonMemMax {
			ct.words[i] = uint64(len(ct.escapes))<<0 | escapeMark<<nonMemShift
			ct.escapes = append(ct.escapes, a)
			continue
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
		ct.words[i] = w
	}
	return ct
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

// Word returns the packed word of access i. Batch replay loops decode it
// with the exported helpers below; an escape record (IsEscape) must be
// resolved through At instead.
func (ct *Compiled) Word(i int) uint64 { return ct.words[i] }

// Words exposes the packed word stream for the replay hot loops. The slice
// is the compiled trace's backing array: callers must treat it as
// read-only.
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

// Windows splits the compiled trace into n contiguous windows of
// near-equal length (the first Len()%n windows get one extra access,
// mirroring parexp.SplitCounts). The windows share the compiled backing
// arrays; the split is a pure function of (Len, n), so it is part of a
// fixed shard plan. n is clamped to [1, Len] (an empty trace yields n
// empty windows).
func (ct *Compiled) Windows(n int) []Compiled {
	if n <= 0 {
		n = 1
	}
	if n > len(ct.words) && len(ct.words) > 0 {
		n = len(ct.words)
	}
	out := make([]Compiled, n)
	base, rem := len(ct.words)/n, len(ct.words)%n
	start := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = Compiled{words: ct.words[start : start+size], escapes: ct.escapes}
		start += size
	}
	return out
}

// SetTag is one access's per-geometry decode: the set index and tag for a
// particular cache shape, plus the write flag. Geometry returns the full
// precomputed stream.
type SetTag struct {
	Set   int
	Tag   mem.Line
	Write bool
}

// Geometry precomputes the (set index, tag, write) stream for a cache with
// the given power-of-two set count, the per-geometry decode the scalar path
// re-derives on every access. All cache models in this repository use the
// full line number as the tag (tag comparison over the whole value), so Tag
// is the line number and Set is its low bits. Escape records decode through
// At. The result is freshly allocated: callers that replay one trace
// against one geometry many times compute it once.
func (ct *Compiled) Geometry(sets int) []SetTag {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("trace: set count must be a positive power of two")
	}
	out := make([]SetTag, len(ct.words))
	for i, w := range ct.words {
		var line mem.Line
		var write bool
		if IsEscape(w) {
			a := ct.escapes[w&lineMask]
			line, write = a.Line(), a.Kind == mem.Write
		} else {
			line, write = Line(w), Write(w)
		}
		out[i] = SetTag{Set: int(uint64(line) & uint64(sets-1)), Tag: line, Write: write}
	}
	return out
}
