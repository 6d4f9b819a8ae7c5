// Package workloads provides the synthetic stand-ins for the eight SPEC
// CPU2006 benchmarks the paper evaluates (astar, bzip2, h264ref, sjeng,
// milc, hmmer, lbm, libquantum), plus the spatial-locality profiler of
// Figure 9.
//
// SPEC binaries and reference inputs cannot be run here, so each generator
// synthesizes a memory access trace whose *qualitative spatial-locality
// profile* matches the class the paper reports for that benchmark in
// Figure 9: most workloads have locality confined to a few neighboring
// lines; lbm and libquantum have irregular streaming patterns with wide
// forward spatial locality — the workloads random fill helps. Absolute
// MPKI/IPC values are not comparable to SPEC; the per-benchmark trends
// across fill windows are what the Figure 8-10 reproductions rely on.
package workloads

import (
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// Generator produces a deterministic synthetic trace for one benchmark, in
// either form: Gen returns the records and Compile the packed words replay
// reads, both written by the same generator body.
type Generator struct {
	// Name is the SPEC benchmark name this generator stands in for.
	Name string
	// Class is a one-line description of the locality class synthesized.
	Class string

	// body writes at least n accesses from seed through out. It checks the
	// trace's length once per step and a step may write several accesses,
	// so it writes up to overshoot accesses past n, which Gen and Compile
	// make room for and cut off.
	body      func(out *trace.Sink, n int, seed uint64)
	overshoot int
}

// Gen produces n memory accesses from the given seed, as records.
func (g Generator) Gen(n int, seed uint64) mem.Trace {
	out := g.build(trace.Record(nil), n, seed)
	return out.Records()
}

// Compile produces the same n accesses as Gen, packed for replay without
// building the records.
func (g Generator) Compile(n int, seed uint64) *trace.Compiled {
	ct := new(trace.Compiled)
	g.build(trace.Pack(ct), n, seed)
	return ct
}

// build runs the body into out, sized in one allocation for its longest
// run, and cuts the trace back to n.
func (g Generator) build(out trace.Sink, n int, seed uint64) trace.Sink {
	out.Grow(n + g.overshoot)
	g.body(&out, n, seed)
	out.Truncate(n)
	return out
}

// base addresses keep benchmark footprints disjoint from the AES layout
// and from each other.
const (
	baseSjeng      mem.Addr = 0x0100_0000
	baseLbm        mem.Addr = 0x0200_0000
	baseLibquantum mem.Addr = 0x0400_0000
	baseH264       mem.Addr = 0x0600_0000
	baseAstar      mem.Addr = 0x0700_0000
	baseMilc       mem.Addr = 0x0900_0000
	baseBzip2      mem.Addr = 0x0B00_0000
	baseHmmer      mem.Addr = 0x0C00_0000
)

// All returns the eight benchmark generators in the paper's Figure 8 order.
//
// The last field of each is its body's overshoot: the accesses a step
// writes after its one length check, less one (lbm writes three per step,
// h264ref a read and maybe a write per line, hmmer three and maybe a
// fourth after a second check).
func All() []Generator {
	return []Generator{
		{"sjeng", "random hash-table probes, narrow locality", genSjeng, 0},
		{"lbm", "regular grid streaming with neighbor access, wide forward locality", genLbm, 2},
		{"libquantum", "irregular streaming over a large array, wide forward locality", genLibquantum, 1},
		{"h264ref", "2D macroblock sweeps with neighborhood reuse", genH264, 1},
		{"astar", "dependent pointer chasing over a graph", genAstar, 0},
		{"milc", "strided numerical sweeps over a lattice", genMilc, 1},
		{"bzip2", "sequential scan mixed with random work-buffer accesses", genBzip2, 0},
		{"hmmer", "hot loops over small score tables, high reuse", genHmmer, 2},
	}
}

// Names returns the benchmark names in order.
func Names() []string {
	gs := All()
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Name
	}
	return out
}

// ByName returns the generator for a benchmark name.
func ByName(name string) (Generator, bool) {
	for _, g := range All() {
		if g.Name == name {
			return g, true
		}
	}
	return Generator{}, false
}

// genSjeng: chess tree search — dependent probes into a transposition
// table with a skewed distribution: most probes hit a hot head region that
// the L1 retains, the rest scatter over a cold tail. Random fills displace
// hot entries with cold neighbors, so the miss rate rises with the window.
func genSjeng(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0x516a)
	const hotLines = 1 << 8   // 16 KB hot head
	const coldLines = 1 << 13 // 512 KB tail
	for out.Len() < n {
		var line mem.Line
		if src.Bool(0.8) {
			line = mem.LineOf(baseSjeng) + mem.Line(src.Intn(hotLines))
		} else {
			line = mem.LineOf(baseSjeng) + mem.Line(hotLines+src.Intn(coldLines))
		}
		out.Add(mem.Access{
			Addr:      mem.AddrOf(line) + mem.Addr(src.Intn(8)*8),
			NonMem:    14,
			Dependent: true,
		})
		if out.Len() < n && src.Bool(0.5) {
			// Hash entries span two lines: the second half is read in
			// the same probe, so the immediate neighbor has utility.
			out.Add(mem.Access{Addr: mem.AddrOf(line + 1), NonMem: 2})
		}
	}
}

// genLbm: lattice-Boltzmann — streaming sweeps over an 8 MB grid, reading
// the current cell and its ±1-row neighborhood and writing the cell back.
// Advances nearly sequentially with occasional small jumps at row ends, so
// the forward spatial locality extends well beyond one line.
func genLbm(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0x1b3)
	const gridLines = 1 << 17 // 8 MB
	line := 0
	group := 0
	for out.Len() < n {
		l := mem.LineOf(baseLbm) + mem.Line(line)
		// Cell read, neighbor read, cell write: three accesses per
		// line position, spread within the line. Every second cell's
		// leading read feeds the collision computation directly, so it
		// is marked dependent — the stream is partially latency-bound,
		// which is what a prefetching fill policy can recover.
		out.Add(mem.Access{Addr: mem.AddrOf(l), NonMem: 3, Dependent: group%2 == 0})
		out.Add(mem.Access{Addr: mem.AddrOf(l) + 24, NonMem: 2})
		out.Add(mem.Access{Addr: mem.AddrOf(l) + 48, Kind: mem.Write, NonMem: 2})
		group++
		// Irregular advance: usually the next line, sometimes a short
		// forward skip (collision-propagation reordering).
		if src.Bool(0.2) {
			line += 1 + src.Intn(4)
		} else {
			line++
		}
		if line >= gridLines {
			line = 0
		}
	}
}

// genLibquantum: quantum register simulation — a latency-bound irregular
// stream: gate application walks the amplitude array two lines at a time,
// each step gated on the previous amplitude read (the dependence chain
// leaves memory-level parallelism on the table, which a prefetching fill
// policy recovers). Short skips and pair reorderings break strict
// sequentiality, hurting a next-line prefetcher, while lines within a
// ~16-line forward window remain useful.
func genLibquantum(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0x11b9)
	const regLines = 1 << 16 // 4 MB
	line := 0
	for out.Len() < n {
		a, b := 0, 1
		if src.Bool(0.3) {
			a, b = 1, 0 // process the pair out of order
		}
		for _, o := range [2]int{a, b} {
			if out.Len() >= n {
				break
			}
			l := mem.LineOf(baseLibquantum) + mem.Line((line+o)%regLines)
			out.Add(mem.Access{Addr: mem.AddrOf(l), NonMem: 3, Dependent: o == a})
			out.Add(mem.Access{Addr: mem.AddrOf(l) + 16, Kind: mem.Write, NonMem: 2})
		}
		line += 2
		if src.Bool(0.1) {
			line += src.Intn(3) // irregular skip
		}
		if line >= regLines {
			line = 0
		}
	}
}

// genH264: video encoding — macroblock processing: each macroblock touches
// a short cluster of 3 consecutive lines several times (current block +
// reference block), then jumps a full frame-row stride away. Locality spans
// roughly ±3 lines; the jump target is far outside any fill window.
func genH264(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0x264)
	const rowStride = 128      // lines between vertically adjacent blocks
	const frameLines = 1 << 14 // 1 MB frame (fits the L2)
	pos := 0
	for out.Len() < n {
		for i := 0; i < 3 && out.Len() < n; i++ {
			l := mem.LineOf(baseH264) + mem.Line((pos+i)%frameLines)
			// The encoder is compute-heavy: SAD/transform work
			// between pixel accesses dilutes memory time.
			out.Add(mem.Access{Addr: mem.AddrOf(l), NonMem: 20})
			if src.Bool(0.5) {
				out.Add(mem.Access{Addr: mem.AddrOf(l) + 32, Kind: mem.Write, NonMem: 12})
			}
		}
		// Next block: vertical neighbor a frame row away.
		pos += rowStride
		if src.Bool(0.05) {
			pos += 3 // move to the next block column
		}
	}
}

// genAstar: path-finding — dependent pointer chasing with a skewed node
// distribution (the search frontier re-expands nearby nodes) plus a hot
// open-list region. Random fills trade hot frontier lines for arbitrary
// pool neighbors.
func genAstar(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0xa57a)
	const hotLines = 1 << 8   // 16 KB frontier
	const poolLines = 1 << 14 // 1 MB node pool
	for out.Len() < n {
		var node mem.Line
		if src.Bool(0.7) {
			node = mem.LineOf(baseAstar) + mem.Line(src.Intn(hotLines))
		} else {
			node = mem.LineOf(baseAstar) + mem.Line(hotLines+src.Intn(poolLines))
		}
		out.Add(mem.Access{Addr: mem.AddrOf(node), NonMem: 12, Dependent: true})
		if out.Len() < n && src.Bool(0.5) {
			// Node records span two lines.
			out.Add(mem.Access{Addr: mem.AddrOf(node + 1), NonMem: 2})
		}
		// Hot open-list access (always cached).
		if out.Len() < n {
			hot := mem.LineOf(baseAstar+0x400000) + mem.Line(src.Intn(8))
			out.Add(mem.Access{Addr: mem.AddrOf(hot), NonMem: 3})
		}
	}
}

// genMilc: lattice QCD — strided sweeps over a lattice whose sites span a
// pair of adjacent lines, with a two-line gap between sites (interleaved
// field storage). The immediate neighbor of a miss is useful; farther fill
// targets mostly land in the gaps.
func genMilc(out *trace.Sink, n int, seed uint64) {
	const latticeLines = 1 << 14 // 1 MB working slice (fits the L2)
	line := 0
	for out.Len() < n {
		l := mem.LineOf(baseMilc) + mem.Line(line)
		out.Add(mem.Access{Addr: mem.AddrOf(l), NonMem: 12})
		out.Add(mem.Access{Addr: mem.AddrOf(l + 1), NonMem: 12})
		line += 4
		if line >= latticeLines {
			line = (line + 1) % 4 // rotate parity each sweep
		}
	}
}

// genBzip2: compression — a sequential input scan interleaved with sparser
// random accesses into 512 KB sorting work buffers (reads with occasional
// pointer-update writes).
func genBzip2(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0xb21b)
	const workLines = 1 << 13  // 512 KB
	const inputLines = 1 << 16 // streamed input
	in := 0
	for out.Len() < n {
		// Input bytes: several accesses per line before advancing.
		l := mem.LineOf(baseBzip2) + mem.Line(in%inputLines)
		out.Add(mem.Access{Addr: mem.AddrOf(l) + mem.Addr(src.Intn(8)*8), NonMem: 3})
		if src.Bool(0.25) {
			in++
		}
		// Work-buffer access on every third input access.
		if out.Len() < n && src.Bool(0.33) {
			w := mem.LineOf(baseBzip2+0x800000) + mem.Line(src.Intn(workLines))
			kind := mem.Write
			if src.Bool(0.3) {
				kind = mem.Read
			}
			out.Add(mem.Access{Addr: mem.AddrOf(w), Kind: kind, NonMem: 4})
		}
	}
}

// genHmmer: profile HMM scoring — tight loops over score tables that fit
// the L1, interleaved with reads of the (cold, streamed) sequence database.
// The sequence misses trigger random fills whose victims are hot table
// lines, so pollution grows with the window.
func genHmmer(out *trace.Sink, n int, seed uint64) {
	src := rng.New(seed ^ 0x4a3e)
	const tableLines = 320   // 20 KB hot score tables
	const seqLines = 1 << 14 // streamed sequence data
	pos, seq := 0, 0
	for out.Len() < n {
		l := mem.LineOf(baseHmmer) + mem.Line(pos%tableLines)
		out.Add(mem.Access{Addr: mem.AddrOf(l), NonMem: 3})
		out.Add(mem.Access{Addr: mem.AddrOf(l) + 16, NonMem: 2})
		out.Add(mem.Access{Addr: mem.AddrOf(l) + 32, Kind: mem.Write, NonMem: 3})
		pos++
		// Every few table iterations, the next sequence residue is
		// read from the cold stream.
		if out.Len() < n && pos%4 == 0 {
			sl := mem.LineOf(baseHmmer+0x800000) + mem.Line(seq%seqLines)
			out.Add(mem.Access{Addr: mem.AddrOf(sl), NonMem: 2})
			if src.Bool(0.25) {
				seq++
			}
		}
		if src.Bool(0.01) {
			pos = src.Intn(tableLines)
		}
	}
}
