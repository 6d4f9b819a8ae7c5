// Package ctsafe provides branchless constant-time primitives: masked
// full-table lookups and selects whose memory access pattern and control
// flow are independent of their secret operands. They are the defense-side
// counterpart of the victim ciphers — an implementation built from these
// helpers leaves no secret-dependent index, branch, or div/mod for a cache
// attacker (or the ctflow checker) to find, at a uniform-scan cost of
// touching every table entry per lookup.
//
// The ctflow taint engine needs no special knowledge of this package: the
// helpers are clean by construction (loop counters index the tables, masks
// replace branches), so the checker proves their callers clean rather than
// taking it on trust. The //ctflow:sanitizer directive exists for genuine
// declassification points (e.g. a MAC comparison verdict) and is
// deliberately not used here — lookup results are still secret data.
package ctsafe

// EqMask8 returns 0xff when a == b and 0x00 otherwise, without branching:
// a^b is zero only on equality, and (x-1)>>8 borrows into the high bits
// only when x is zero.
func EqMask8(a, b byte) byte {
	x := uint32(a ^ b)
	return byte((x - 1) >> 8)
}

// Select8 returns a when mask is 0xff and b when mask is 0x00. Any other
// mask value mixes the operands bitwise; callers must pass a proper mask.
//
//lint:ignore unused lint victim: a constant-time primitive that ctflow must prove leak-free; no experiment runs it
func Select8(mask, a, b byte) byte {
	return b ^ (mask & (a ^ b))
}

// LookupByte returns table[idx] with a uniform access pattern: every entry
// is read and all but the matching one are masked away, so the trace of
// cache lines touched is the whole table regardless of idx.
func LookupByte(table *[256]byte, idx byte) byte {
	var out byte
	for i := 0; i < 256; i++ {
		out |= table[i] & EqMask8(byte(i), idx)
	}
	return out
}

// LookupU32 is LookupByte for 256-entry word tables.
//
//lint:ignore unused lint victim: a constant-time primitive that ctflow must prove leak-free; no experiment runs it
func LookupU32(table *[256]uint32, idx byte) uint32 {
	var out uint32
	for i := 0; i < 256; i++ {
		m := uint32(EqMask8(byte(i), idx))
		m |= m<<8 | m<<16 | m<<24
		out |= table[i] & m
	}
	return out
}

// Xtime doubles b in GF(2^8) with the AES polynomial, replacing the
// high-bit reduction branch with an arithmetic mask: -(b>>7) is 0xff
// exactly when the high bit is set.
func Xtime(b byte) byte {
	return b<<1 ^ (0x1b & -(b >> 7))
}
