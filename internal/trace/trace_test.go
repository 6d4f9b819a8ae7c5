package trace

import (
	"slices"
	"testing"

	"randfill/internal/mem"
	"randfill/internal/rng"
)

// randTrace generates a trace that exercises every packed field plus both
// escape conditions (giant line numbers, giant NonMem counts).
func randTrace(src *rng.Source, n int) mem.Trace {
	t := make(mem.Trace, n)
	for i := range t {
		a := mem.Access{
			Addr:      mem.Addr(src.Uint64() >> (8 + src.Intn(30))),
			NonMem:    uint32(src.Intn(40)),
			Dependent: src.Bool(0.3),
			Secret:    src.Bool(0.2),
		}
		if src.Bool(0.3) {
			a.Kind = mem.Write
		}
		switch src.Intn(40) {
		case 0:
			a.Addr = mem.Addr(src.Uint64()) // likely beyond the 49-bit line space
		case 1:
			a.NonMem = uint32(src.Uint64() >> 34) // likely beyond 12 bits
		}
		t[i] = a
	}
	return t
}

// checkCompiled verifies a compiled trace against its source: the scalar
// decode of every access (line, write flag, instruction count, dependence
// and secret flags) must match what At and the packed word stream report.
func checkCompiled(t *testing.T, tr mem.Trace, ct *Compiled) {
	t.Helper()
	if ct.Len() != len(tr) {
		t.Fatalf("Len = %d, want %d", ct.Len(), len(tr))
	}
	for i, a := range tr {
		got := ct.At(i)
		if got.Line() != a.Line() || got.Kind != a.Kind || got.Instructions() != a.Instructions() ||
			got.Dependent != a.Dependent || got.Secret != a.Secret {
			t.Fatalf("At(%d) = %+v, want the decode of %+v", i, got, a)
		}
		w := ct.Words()[i]
		if IsEscape(w) {
			continue
		}
		if Line(w) != a.Line() || Write(w) != (a.Kind == mem.Write) ||
			Dependent(w) != a.Dependent || Secret(w) != a.Secret ||
			Instructions(w) != a.Instructions() {
			t.Fatalf("word %d decodes to (%v %v %v %v %d), want scalar (%v %v %v %v %d)",
				i, Line(w), Write(w), Dependent(w), Secret(w), Instructions(w),
				a.Line(), a.Kind == mem.Write, a.Dependent, a.Secret, a.Instructions())
		}
	}
}

// TestCompileMatchesScalarDecode is the compiler's property test: for many
// random traces, the compiled stream decodes to exactly the (line, write)
// sequence — plus instruction counts and scheduling flags — that the scalar
// path derives per access.
func TestCompileMatchesScalarDecode(t *testing.T) {
	src := rng.New(0xc0de)
	for round := 0; round < 50; round++ {
		tr := randTrace(src, 1+src.Intn(500))
		checkCompiled(t, tr, Compile(tr))
	}
}

// TestSetAddrMatchesRecompile rewrites random accesses' addresses in a
// compiled trace, packed and escape records alike and including addresses
// beyond the packed line range, and requires the result to decode like
// the compiled trace of the rewritten source.
func TestSetAddrMatchesRecompile(t *testing.T) {
	src := rng.New(0x5e7a)
	for round := 0; round < 50; round++ {
		tr := randTrace(src, 1+src.Intn(300))
		ct := Compile(tr)
		for k := 0; k < 40; k++ {
			i := src.Intn(len(tr))
			addr := mem.Addr(src.Uint64() >> (8 + src.Intn(30)))
			if src.Intn(10) == 0 {
				addr = mem.Addr(src.Uint64()) // likely beyond the 49-bit line space
			}
			tr[i].Addr = addr
			ct.SetAddr(i, addr)
		}
		checkCompiled(t, tr, ct)
	}
}

// TestCompileIntoReuses pins the steady-state allocation contract: once the
// backing arrays fit, recompiling same-shaped traces allocates nothing.
func TestCompileIntoReuses(t *testing.T) {
	src := rng.New(7)
	traces := make([]mem.Trace, 8)
	for i := range traces {
		traces[i] = randTrace(src, 300)
	}
	var ct Compiled
	CompileInto(&ct, traces[0])
	words := &ct.words[0]
	n := 0
	allocs := testing.AllocsPerRun(len(traces), func() {
		CompileInto(&ct, traces[n%len(traces)])
		n++
	})
	if allocs > 0 {
		t.Fatalf("CompileInto allocated %.1f times per run, want 0", allocs)
	}
	if &ct.words[0] != words {
		t.Fatal("CompileInto did not reuse the words backing array")
	}
}

// sameCompiled fails unless got holds exactly want's words and escape
// records.
func sameCompiled(t *testing.T, got, want *Compiled) {
	t.Helper()
	if !slices.Equal(got.words, want.words) {
		t.Fatalf("words differ:\n got %#x\nwant %#x", got.words, want.words)
	}
	if !slices.Equal(got.escapes, want.escapes) {
		t.Fatalf("escapes differ:\n got %+v\nwant %+v", got.escapes, want.escapes)
	}
}

// packEach writes tr through a packing Sink access by access and
// truncates the result to its first n accesses: the path a generator's
// packed build takes when its last step writes past n.
func packEach(tr mem.Trace, n int) *Compiled {
	ct := new(Compiled)
	out := Pack(ct)
	for _, a := range tr {
		out.Add(a)
	}
	out.Truncate(n)
	return ct
}

// TestSinkMatchesCompile requires a packing Sink to build exactly the
// words and escape records CompileInto builds, with accesses (escapes
// among them) written past the end and truncated away, and a record Sink
// to return the records it was given.
func TestSinkMatchesCompile(t *testing.T) {
	src := rng.New(0x51c)
	for round := 0; round < 50; round++ {
		tr := randTrace(src, 60+src.Intn(300))
		k := src.Intn(len(tr) + 1)
		sameCompiled(t, packEach(tr, k), Compile(tr[:k]))

		out := Record(nil)
		out.Grow(k)
		for _, a := range tr {
			out.Add(a)
		}
		out.Truncate(k)
		if got := out.Records(); !slices.Equal(got, tr[:k]) || out.Len() != k {
			t.Fatalf("record Sink returned %d records, want the first %d written", len(got), k)
		}
	}
}

// TestTruncateKeepsReferencedEscapes covers a trace whose escape records
// are not in word order: SetAddr turned an early word into an escape after
// a later one. Truncating away the later one must keep the early one's.
func TestTruncateKeepsReferencedEscapes(t *testing.T) {
	far := mem.Addr(1) << 62 // beyond the packed line range
	tr := mem.Trace{{Addr: 0x40}, {Addr: far}, {Addr: 0x80}}
	ct := Compile(tr)
	ct.SetAddr(0, far+64)
	ct.truncate(1)
	if ct.Len() != 1 || ct.At(0).Addr != far+64 {
		t.Fatalf("after truncate: %d words, At(0) = %+v, want the rewritten escape", ct.Len(), ct.At(0))
	}
}

// TestSinkGrowSizesOnlyTheNewPart pins Grow's one-allocation sizing on a
// trace that already holds accesses: it makes room for exactly the new
// part, and makes none when there is room already.
func TestSinkGrowSizesOnlyTheNewPart(t *testing.T) {
	ct := Compile(randTrace(rng.New(3), 1000))
	out := Pack(ct)
	out.Grow(5000)
	if got := cap(ct.words); got < 6000 || got > 6000+1024 {
		t.Fatalf("Grow(5000) after 1000 words: cap %d, want 6000 (rounded up to a page)", got)
	}
	words := &ct.words[0]
	out.Grow(5000)
	if &ct.words[0] != words {
		t.Fatal("Grow reallocated a trace that had room")
	}
}

// decodeFuzzTrace turns an arbitrary byte string into a trace, giving the
// fuzzer full control over every field including the escape conditions.
func decodeFuzzTrace(data []byte) mem.Trace {
	var tr mem.Trace
	for len(data) >= 14 {
		addr := mem.Addr(data[0]) | mem.Addr(data[1])<<8 | mem.Addr(data[2])<<16 |
			mem.Addr(data[3])<<24 | mem.Addr(data[4])<<32 | mem.Addr(data[5])<<40 |
			mem.Addr(data[6])<<48 | mem.Addr(data[7])<<56
		nonmem := uint32(data[8]) | uint32(data[9])<<8 | uint32(data[10])<<16 | uint32(data[11])<<24
		a := mem.Access{
			Addr:      addr,
			NonMem:    nonmem,
			Dependent: data[12]&1 != 0,
			Secret:    data[12]&2 != 0,
		}
		if data[13]&1 != 0 {
			a.Kind = mem.Write
		}
		tr = append(tr, a)
		data = data[14:]
	}
	return tr
}

// FuzzTraceCompile fuzzes the compiler against the scalar decode: whatever
// the input trace, the compiled stream must decode to the same
// (line, write) sequence and At must round-trip every replay-visible field,
// and packing a prefix access by access, past its end and truncated back,
// must equal CompileInto of that prefix. Seed corpus entries cover the
// packed fast path, both escape conditions, and the all-flags case.
func FuzzTraceCompile(f *testing.F) {
	f.Add([]byte{})
	// One plain packed access.
	f.Add([]byte{0x40, 0x11, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 1})
	// Line-overflow escape (address with all top bits set).
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 0, 0, 0, 0})
	// NonMem-overflow escape.
	f.Add([]byte{0x00, 0x20, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeFuzzTrace(data)
		checkCompiled(t, tr, Compile(tr))
		// Packing access by access and truncating, as a generator's packed
		// build does, gives CompileInto's words and escapes.
		k := len(data) % (len(tr) + 1)
		sameCompiled(t, packEach(tr, k), CompileInto(new(Compiled), tr[:k]))
	})
}
