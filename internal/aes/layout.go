package aes

import (
	"randfill/internal/mem"
)

// Layout places the cipher's data structures in the simulated address
// space. Each lookup table is 1 KB (256 four-byte entries, 16 cache lines);
// the ten tables are contiguous, as they would be in a shared library's
// read-only data segment.
type Layout struct {
	Tables    [NumTables]mem.Addr
	RoundKeys mem.Addr // 176 bytes (11 round keys)
	Stack     mem.Addr // hot stack frame region
	Input     mem.Addr // plaintext buffer
	Output    mem.Addr // ciphertext buffer
}

// TableSize is the byte size of one lookup table.
const TableSize = 1024

// TableLines is the number of cache lines per table (M = 16 in the paper's
// case study: 1 KB table, 64-byte lines).
const TableLines = TableSize / mem.LineSize

// EntriesPerLine is the number of 4-byte table entries per cache line.
const EntriesPerLine = mem.LineSize / 4

// DefaultLayout returns the address-space placement used by all experiments.
// The regions carry distinct line offsets so they do not all alias to the
// same cache sets in small direct-mapped configurations (as a real process
// layout, with tables in .rodata, round keys and buffers on the heap and
// locals on the stack, would not).
func DefaultLayout() Layout {
	var l Layout
	for i := 0; i < NumTables; i++ {
		l.Tables[i] = mem.Addr(0x10000 + i*TableSize)
	}
	l.RoundKeys = 0x20000 + 37*mem.LineSize
	l.Stack = 0x30000 + 101*mem.LineSize
	l.Input = 0x40000 + 211*mem.LineSize
	l.Output = 0x80000 + 331*mem.LineSize
	return l
}

// TableRegion returns the memory region of table t (0..NumTables-1).
func (l Layout) TableRegion(t int) mem.Region {
	return mem.Region{Base: l.Tables[t], Size: TableSize}
}

// EncTableRegions returns the five encryption-table regions (the
// security-critical data to protect for an encryption-only workload).
func (l Layout) EncTableRegions() []mem.Region {
	out := make([]mem.Region, 5)
	for i := 0; i < 5; i++ {
		out[i] = l.TableRegion(TableTe0 + i)
	}
	return out
}

// AllTableRegions returns all ten table regions (encryption + decryption).
func (l Layout) AllTableRegions() []mem.Region {
	out := make([]mem.Region, NumTables)
	for i := range out {
		out[i] = l.TableRegion(i)
	}
	return out
}

// LookupAddr returns the byte address of entry index in table t.
func (l Layout) LookupAddr(t int, index byte) mem.Addr {
	return l.Tables[t] + mem.Addr(index)*4
}

// LookupLine returns the cache line of entry index in table t; within a
// table, lines are numbered 0..TableLines-1 by index >> 4.
func (l Layout) LookupLine(t int, index byte) mem.Line {
	return mem.LineOf(l.LookupAddr(t, index))
}

// TraceOpts tunes the instruction mix of generated traces. The defaults
// reproduce the paper's observation that security-critical accesses are
// about 24% of all data-cache accesses in the AES workload.
type TraceOpts struct {
	// StackPerLookup is the number of hot stack-region accesses emitted
	// around each table lookup (default 3 → 160 lookups / ~662 accesses
	// ≈ 24% security-critical).
	StackPerLookup int
	// NonMem is the number of non-memory instructions preceding each
	// memory access (default 2).
	NonMem uint32
}

func (o TraceOpts) withDefaults() TraceOpts {
	if o.StackPerLookup == 0 {
		o.StackPerLookup = 3
	}
	if o.NonMem == 0 {
		o.NonMem = 2
	}
	return o
}

// stackLines is the number of cache lines in the hot stack region.
const stackLines = 4

// traceRec builds a mem.Trace from the cipher's lookup callbacks,
// interleaving the non-table accesses (round keys, stack traffic) a real
// execution performs.
type traceRec struct {
	lay    Layout
	opts   TraceOpts
	trace  mem.Trace
	stack  int // rotating stack-line cursor
	rkWord int // rotating round-key word cursor
}

func (r *traceRec) add(a mem.Access) { r.trace = append(r.trace, a) }

// reserve sizes the trace for blocks blocks in all, once the first block is
// recorded: for a given cipher and TraceOpts every block emits the same
// number of accesses, so a CBC run makes one allocation of the whole trace
// instead of growing it through repeated copies.
func (r *traceRec) reserve(blocks int) {
	if n := len(r.trace) * blocks; n > cap(r.trace) {
		r.trace = append(make(mem.Trace, 0, n), r.trace...)
	}
}

func (r *traceRec) stackAccess(kind mem.Kind) {
	addr := r.lay.Stack + mem.Addr((r.stack%stackLines)*mem.LineSize) + mem.Addr(r.stack*8%mem.LineSize)
	r.stack++
	r.add(mem.Access{Addr: addr, Kind: kind, NonMem: r.opts.NonMem})
}

func (r *traceRec) roundKeyReads(n int) {
	for i := 0; i < n; i++ {
		addr := r.lay.RoundKeys + mem.Addr((r.rkWord%44)*4)
		r.rkWord++
		r.add(mem.Access{Addr: addr, Kind: mem.Read, NonMem: r.opts.NonMem})
	}
}

// Lookup implements Recorder.
func (r *traceRec) Lookup(table int, index byte, round int, first bool) {
	if first {
		// Round boundary: the four round-key words are read.
		r.roundKeyReads(4)
	}
	for i := 0; i < r.opts.StackPerLookup; i++ {
		kind := mem.Read
		if i == r.opts.StackPerLookup-1 {
			kind = mem.Write
		}
		r.stackAccess(kind)
	}
	r.add(mem.Access{
		Addr:      r.lay.LookupAddr(table, index),
		Kind:      mem.Read,
		NonMem:    r.opts.NonMem,
		Dependent: first,
		Secret:    true,
	})
}

func (r *traceRec) bufferIO(base mem.Addr, off int, kind mem.Kind) {
	for i := 0; i < 4; i++ {
		r.add(mem.Access{Addr: base + mem.Addr(off+i*4), Kind: kind, NonMem: r.opts.NonMem})
	}
}

// Tracer generates memory access traces for cipher executions under a given
// layout. Use it by pointer: EncryptBlockInto keeps a persistent recorder
// (a per-call recorder would escape through the Recorder interface).
type Tracer struct {
	Cipher *Cipher
	Layout Layout
	Opts   TraceOpts

	rec traceRec
}

// EncryptBlock encrypts one block at buffer offset off and returns the
// ciphertext together with the block's memory access trace. The trace is
// freshly allocated; measurement loops should use EncryptBlockInto with a
// reused buffer instead.
func (t *Tracer) EncryptBlock(src []byte, off int) ([BlockSize]byte, mem.Trace) {
	return t.EncryptBlockInto(nil, src, off)
}

// EncryptBlockInto is the allocation-free form of EncryptBlock: the block's
// accesses are appended to buf (pass a recycled slice truncated to
// length 0) and the grown slice is returned. The per-sample attack loops
// call this once per encryption.
func (t *Tracer) EncryptBlockInto(buf mem.Trace, src []byte, off int) ([BlockSize]byte, mem.Trace) {
	rec := &t.rec
	rec.lay = t.Layout
	rec.opts = t.Opts.withDefaults()
	rec.trace = buf
	rec.stack = 0
	rec.rkWord = 0
	rec.bufferIO(t.Layout.Input, off, mem.Read)
	rec.roundKeyReads(4) // initial AddRoundKey
	var dst [BlockSize]byte
	t.Cipher.Encrypt(dst[:], src, rec)
	rec.bufferIO(t.Layout.Output, off, mem.Write)
	out := rec.trace
	rec.trace = nil
	return dst, out
}

// EncryptCBC encrypts src in CBC mode and returns the ciphertext and the
// whole run's access trace.
func (t *Tracer) EncryptCBC(src, iv []byte) ([]byte, mem.Trace, error) {
	rec := &traceRec{lay: t.Layout, opts: t.Opts.withDefaults()}
	dst := make([]byte, len(src))
	// CBC processes block by block; buffer traffic is interleaved by
	// encrypting per block through the low-level API so buffer reads and
	// writes land at the right positions in the trace.
	var chain [BlockSize]byte
	copy(chain[:], iv)
	var x [BlockSize]byte
	for off := 0; off < len(src); off += BlockSize {
		rec.bufferIO(t.Layout.Input, off, mem.Read)
		rec.roundKeyReads(4)
		for i := 0; i < BlockSize; i++ {
			x[i] = src[off+i] ^ chain[i]
		}
		t.Cipher.Encrypt(dst[off:off+BlockSize], x[:], rec)
		rec.bufferIO(t.Layout.Output, off, mem.Write)
		copy(chain[:], dst[off:off+BlockSize])
		if off == 0 {
			rec.reserve(len(src) / BlockSize)
		}
	}
	return dst, rec.trace, nil
}

// DecryptCBC decrypts src in CBC mode and returns the plaintext and trace.
func (t *Tracer) DecryptCBC(src, iv []byte) ([]byte, mem.Trace, error) {
	rec := &traceRec{lay: t.Layout, opts: t.Opts.withDefaults()}
	dst := make([]byte, len(src))
	var chain, next [BlockSize]byte
	copy(chain[:], iv)
	for off := 0; off < len(src); off += BlockSize {
		rec.bufferIO(t.Layout.Input, off, mem.Read)
		rec.roundKeyReads(4)
		copy(next[:], src[off:off+BlockSize])
		t.Cipher.Decrypt(dst[off:off+BlockSize], src[off:off+BlockSize], rec)
		for i := 0; i < BlockSize; i++ {
			dst[off+i] ^= chain[i]
		}
		rec.bufferIO(t.Layout.Output, off, mem.Write)
		chain = next
		if off == 0 {
			rec.reserve(len(src) / BlockSize)
		}
	}
	return dst, rec.trace, nil
}
