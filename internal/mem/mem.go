// Package mem defines the basic memory abstractions shared by every other
// subsystem: byte addresses, cache-line numbers, memory access records,
// access traces, and descriptors for security-critical memory regions.
//
// All cache models in this repository operate on line numbers (an address
// right-shifted by the line-size log), so the conversion helpers here are the
// single source of truth for cache-line geometry.
package mem

import "fmt"

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line is a cache-line number: a byte address divided by the line size.
// All fill and lookup operations in the cache models are line-granular.
type Line uint64

// LineSize is the cache line size in bytes used throughout the simulator.
// The paper's configuration (Table IV) uses 64-byte lines.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LineOf returns the cache-line number containing address a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// AddrOf returns the first byte address of line l.
func AddrOf(l Line) Addr { return Addr(l) << LineShift }

// Kind distinguishes the kinds of operations that can appear in a trace.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Access is one memory operation in a trace, plus the scheduling metadata the
// timing model needs.
//
// NonMem is the number of non-memory instructions that execute (in program
// order) immediately before this access; it lets a trace carry full
// instruction counts without one record per instruction.
//
// Dependent marks an access whose address depends on the value loaded by the
// previous memory access (pointer chasing, table lookups chained across AES
// rounds). The timing model serializes a dependent access behind all
// outstanding misses; independent accesses may overlap in the miss queue.
type Access struct {
	Addr      Addr
	Kind      Kind
	NonMem    uint32
	Dependent bool
	// Secret marks accesses whose address is derived from secret data
	// (key-dependent table lookups). Attack and channel analyses use it;
	// the cache models themselves never look at it.
	Secret bool
}

// Line returns the cache line touched by the access.
func (a Access) Line() Line { return LineOf(a.Addr) }

// Instructions returns the total instruction count the access represents:
// its leading non-memory instructions plus the memory operation itself.
func (a Access) Instructions() uint64 { return uint64(a.NonMem) + 1 }

// Trace is an ordered sequence of memory accesses representing one thread's
// execution.
type Trace []Access

// Instructions returns the total number of instructions in the trace.
func (t Trace) Instructions() uint64 {
	var n uint64
	for _, a := range t {
		n += a.Instructions()
	}
	return n
}

// Lines returns the set of distinct cache lines touched by the trace.
func (t Trace) Lines() map[Line]struct{} {
	s := make(map[Line]struct{})
	for _, a := range t {
		s[a.Line()] = struct{}{}
	}
	return s
}

// Region describes a contiguous memory region, typically holding
// security-critical data such as an AES lookup table. The security analyses
// in internal/infotheory and the preloading logic in internal/plcache both
// operate on Regions.
type Region struct {
	Base Addr
	Size uint64
}

// FirstLine returns the first cache line of the region.
func (r Region) FirstLine() Line { return LineOf(r.Base) }

// NumLines returns the number of cache lines the region spans (M in the
// paper's analysis).
func (r Region) NumLines() int {
	if r.Size == 0 {
		return 0
	}
	first := LineOf(r.Base)
	last := LineOf(r.Base + Addr(r.Size) - 1)
	return int(last-first) + 1
}

// Lines returns all cache lines spanned by the region, in order.
func (r Region) Lines() []Line {
	n := r.NumLines()
	out := make([]Line, n)
	for i := range out {
		out[i] = r.FirstLine() + Line(i)
	}
	return out
}

func (r Region) String() string {
	return fmt.Sprintf("[%#x,+%d)", uint64(r.Base), r.Size)
}
