package blowfish

import "randfill/internal/mem"

// Layout places the cipher's tables in the simulated address space: four
// 1 KB S-boxes (the security-critical data, 16 cache lines each) plus the
// 72-byte P-array, input/output buffers and a hot stack region.
type Layout struct {
	SBoxes [4]mem.Addr
	PArray mem.Addr
	Stack  mem.Addr
	Input  mem.Addr
	Output mem.Addr
}

// SBoxSize is the byte size of one S-box (256 4-byte entries).
const SBoxSize = 1024

// DefaultLayout places the Blowfish data away from the AES layout, with
// de-aliased line offsets (see aes.DefaultLayout).
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
func DefaultLayout() Layout {
	var l Layout
	for i := range l.SBoxes {
		l.SBoxes[i] = mem.Addr(0x200000 + i*SBoxSize)
	}
	l.PArray = 0x210000 + 41*mem.LineSize
	l.Stack = 0x220000 + 97*mem.LineSize
	l.Input = 0x230000 + 223*mem.LineSize
	l.Output = 0x260000 + 307*mem.LineSize
	return l
}

// SBoxRegion returns the memory region of S-box b.
func (l Layout) SBoxRegion(b int) mem.Region {
	return mem.Region{Base: l.SBoxes[b], Size: SBoxSize}
}

// SBoxRegions returns all four S-box regions (the security-critical data).
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
func (l Layout) SBoxRegions() []mem.Region {
	out := make([]mem.Region, 4)
	for i := range out {
		out[i] = l.SBoxRegion(i)
	}
	return out
}

// LookupAddr returns the byte address of entry index in S-box b.
func (l Layout) LookupAddr(b int, index byte) mem.Addr {
	return l.SBoxes[b] + mem.Addr(index)*4
}

// Tracer generates memory access traces for Blowfish executions, in the
// same shape as the AES tracer: S-box lookups marked Secret, with P-array,
// stack and buffer traffic interleaved.
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
type Tracer struct {
	Cipher *Cipher
	Layout Layout
}

type traceRec struct {
	lay   Layout
	trace mem.Trace
	stack int
	pWord int
}

const stackLines = 4

func (r *traceRec) stackAccess(kind mem.Kind) {
	addr := r.lay.Stack + mem.Addr((r.stack%stackLines)*mem.LineSize) + mem.Addr(r.stack*8%mem.LineSize)
	r.stack++
	r.trace = append(r.trace, mem.Access{Addr: addr, Kind: kind, NonMem: 2})
}

// Lookup implements Recorder.
func (r *traceRec) Lookup(box int, index byte, round int, first bool) {
	if first {
		// Round boundary: the two P-array words are read.
		for k := 0; k < 2; k++ {
			addr := r.lay.PArray + mem.Addr((r.pWord%18)*4)
			r.pWord++
			r.trace = append(r.trace, mem.Access{Addr: addr, Kind: mem.Read, NonMem: 2})
		}
	}
	r.stackAccess(mem.Read)
	r.trace = append(r.trace, mem.Access{
		Addr:      r.lay.LookupAddr(box, index),
		Kind:      mem.Read,
		NonMem:    2,
		Dependent: first,
		Secret:    true,
	})
}

// EncryptBlock encrypts one block at buffer offset off and returns the
// ciphertext and the block's memory access trace.
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
func (t *Tracer) EncryptBlock(src []byte, off int) ([BlockSize]byte, mem.Trace) {
	rec := &traceRec{lay: t.Layout}
	for i := 0; i < 2; i++ {
		rec.trace = append(rec.trace, mem.Access{
			Addr: t.Layout.Input + mem.Addr(off+i*4), Kind: mem.Read, NonMem: 2,
		})
	}
	var dst [BlockSize]byte
	t.Cipher.Encrypt(dst[:], src, rec)
	for i := 0; i < 2; i++ {
		rec.trace = append(rec.trace, mem.Access{
			Addr: t.Layout.Output + mem.Addr(off+i*4), Kind: mem.Write, NonMem: 2,
		})
	}
	return dst, rec.trace
}
