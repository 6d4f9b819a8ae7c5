// Package blowfish implements the Blowfish block cipher (Schneier, 1993),
// the second table-based cipher the paper names among the targets of cache
// side channel attacks ("the substitution box (S-box) in the block ciphers
// (e.g., DES, AES, Blowfish)"). Its four 1 KB S-boxes have exactly the
// shape of the AES T-tables, so the same collision and Flush-Reload
// channels exist — and the same random fill window closes them.
//
// The initial P-array and S-boxes are the hexadecimal digits of pi; rather
// than embedding ~4 KB of constants, they are computed at initialization
// from Machin's formula with big.Int arithmetic and validated against the
// published Blowfish test vectors by the test suite.
package blowfish

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// BlockSize is the Blowfish block size in bytes.
const BlockSize = 8

const rounds = 16

// piWords holds the first 18 + 4*256 32-bit words of the fractional part
// of pi, filled by init.
var piWords [18 + 4*256]uint32

func init() {
	computePiWords()
}

// computePiWords computes the binary expansion of pi's fractional part via
// Machin's formula, pi = 16*atan(1/5) - 4*atan(1/239), in fixed-point
// big.Int arithmetic with guard bits.
func computePiWords() {
	const bits = (18 + 4*256) * 32
	const guard = 64
	one := new(big.Int).Lsh(big.NewInt(1), bits+guard)

	pi := new(big.Int).Mul(atanInv(5, one), big.NewInt(16))
	pi.Sub(pi, new(big.Int).Mul(atanInv(239, one), big.NewInt(4)))

	// Drop the integer part (3) and the guard bits.
	frac := new(big.Int).Mod(pi, one)
	frac.Rsh(frac, guard)
	// frac now holds the fractional bits, most significant first when
	// read from the top: extract 32-bit words from the high end.
	for i := range piWords {
		shift := uint(bits - 32*(i+1))
		w := new(big.Int).Rsh(frac, shift)
		piWords[i] = uint32(w.Uint64() & 0xffffffff)
	}
}

// atanInv returns atan(1/x) in fixed point with denominator `scale`, by the
// alternating series atan(1/x) = sum (-1)^k / ((2k+1) x^(2k+1)).
func atanInv(x int64, scale *big.Int) *big.Int {
	sum := new(big.Int)
	term := new(big.Int).Div(scale, big.NewInt(x))
	xsq := big.NewInt(x * x)
	tmp := new(big.Int)
	for k := int64(0); term.Sign() != 0; k++ {
		tmp.Div(term, big.NewInt(2*k+1))
		if k%2 == 0 {
			sum.Add(sum, tmp)
		} else {
			sum.Sub(sum, tmp)
		}
		term.Div(term, xsq)
	}
	return sum
}

// Cipher holds an expanded Blowfish key schedule.
type Cipher struct {
	p [18]uint32
	s [4][256]uint32
}

// New expands the variable-length key (1 to 56 bytes) into a Cipher.
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
func New(key []byte) (*Cipher, error) {
	if len(key) < 1 || len(key) > 56 {
		return nil, fmt.Errorf("blowfish: invalid key size %d (want 1..56)", len(key))
	}
	c := &Cipher{}
	copy(c.p[:], piWords[:18])
	for i := 0; i < 4; i++ {
		copy(c.s[i][:], piWords[18+i*256:18+(i+1)*256])
	}
	// XOR the key cyclically into the P-array.
	j := 0
	for i := range c.p {
		var w uint32
		for k := 0; k < 4; k++ {
			w = w<<8 | uint32(key[j])
			j++
			if j == len(key) {
				j = 0
			}
		}
		c.p[i] ^= w
	}
	// Replace P and S entries by repeatedly encrypting the zero block.
	var l, r uint32
	for i := 0; i < 18; i += 2 {
		l, r = c.encryptWords(l, r, nil)
		c.p[i], c.p[i+1] = l, r
	}
	for b := 0; b < 4; b++ {
		for i := 0; i < 256; i += 2 {
			l, r = c.encryptWords(l, r, nil)
			c.s[b][i], c.s[b][i+1] = l, r
		}
	}
	return c, nil
}

// Recorder observes the key-dependent S-box lookups of a traced block
// operation: box is 0..3, index the byte index into the 256-entry box,
// round 1..16, and first marks the first lookup of a round.
type Recorder interface {
	Lookup(box int, index byte, round int, first bool)
}

// f is the Blowfish round function with optional lookup recording.
func (c *Cipher) f(x uint32, round int, rec Recorder) uint32 {
	a := byte(x >> 24)
	b := byte(x >> 16)
	d := byte(x >> 8)
	e := byte(x)
	if rec != nil {
		rec.Lookup(0, a, round, true)
		rec.Lookup(1, b, round, false)
		rec.Lookup(2, d, round, false)
		rec.Lookup(3, e, round, false)
	}
	return ((c.s[0][a] + c.s[1][b]) ^ c.s[2][d]) + c.s[3][e]
}

func (c *Cipher) encryptWords(l, r uint32, rec Recorder) (uint32, uint32) {
	for i := 0; i < rounds; i += 2 {
		l ^= c.p[i]
		r ^= c.f(l, i+1, rec)
		r ^= c.p[i+1]
		l ^= c.f(r, i+2, rec)
	}
	l ^= c.p[16]
	r ^= c.p[17]
	return r, l
}

func (c *Cipher) decryptWords(l, r uint32, rec Recorder) (uint32, uint32) {
	for i := 17; i > 1; i -= 2 {
		l ^= c.p[i]
		r ^= c.f(l, 18-i, rec)
		r ^= c.p[i-1]
		l ^= c.f(r, 19-i, rec)
	}
	l ^= c.p[1]
	r ^= c.p[0]
	return r, l
}

// Encrypt encrypts one 8-byte block from src into dst (may alias),
// reporting S-box lookups to rec if non-nil.
func (c *Cipher) Encrypt(dst, src []byte, rec Recorder) {
	l := binary.BigEndian.Uint32(src[0:])
	r := binary.BigEndian.Uint32(src[4:])
	l, r = c.encryptWords(l, r, rec)
	binary.BigEndian.PutUint32(dst[0:], l)
	binary.BigEndian.PutUint32(dst[4:], r)
}

// Decrypt decrypts one 8-byte block from src into dst (may alias).
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
func (c *Cipher) Decrypt(dst, src []byte, rec Recorder) {
	l := binary.BigEndian.Uint32(src[0:])
	r := binary.BigEndian.Uint32(src[4:])
	l, r = c.decryptWords(l, r, rec)
	binary.BigEndian.PutUint32(dst[0:], l)
	binary.BigEndian.PutUint32(dst[4:], r)
}

// PiWord exposes the i-th computed pi word for validation (the first is
// 0x243F6A88, the well-known leading fractional word of pi).
//
//lint:ignore unused lint victim: the second table cipher, which ctflow must find leaking at its LEAKS.json sites; no experiment runs it
func PiWord(i int) uint32 { return piWords[i] }
