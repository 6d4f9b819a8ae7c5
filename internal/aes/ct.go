package aes

import (
	"encoding/binary"
	"fmt"

	"randfill/internal/ctsafe"
)

// This file is the constant-time defense path: the same cipher as
// Encrypt/Decrypt but built from internal/ctsafe primitives, so no memory
// access, branch, or variable-latency instruction depends on the key. It
// is the software analogue of the paper's hardware defenses — where the
// random fill cache de-correlates the leaky implementation's footprint,
// this implementation removes the footprint altogether, at the cost of a
// full S-box scan per byte. The ctflow checker proves the property: these
// functions contribute zero entries to LEAKS.json.

// NewCT expands a key into a Cipher using the uniform-access key schedule.
// The resulting schedule is bit-identical to New's; only the expansion's
// access pattern differs.
//
//lint:ignore unused lint victim: the constant-time AES that ctflow must prove leak-free; no experiment runs it
func NewCT(key []byte) (*Cipher, error) {
	c := &Cipher{}
	if err := c.SetKeyCT(key); err != nil {
		return nil, err
	}
	return c, nil
}

// SetKeyCT re-keys the cipher in place like SetKey, with uniform-access
// S-box lookups in the expansion.
func (c *Cipher) SetKeyCT(key []byte) error {
	switch len(key) {
	case 16:
		c.rounds = 10
	case 24:
		c.rounds = 12
	case 32:
		c.rounds = 14
	default:
		return fmt.Errorf("aes: invalid key size %d (want 16, 24 or 32)", len(key))
	}
	c.decValid = false
	c.expandKeyCT(key)
	return nil
}

// subWordCT is subWord with masked full-table S-box scans.
func subWordCT(w uint32) uint32 {
	return uint32(ctsafe.LookupByte(&sbox, byte(w>>24)))<<24 |
		uint32(ctsafe.LookupByte(&sbox, byte(w>>16)))<<16 |
		uint32(ctsafe.LookupByte(&sbox, byte(w>>8)))<<8 |
		uint32(ctsafe.LookupByte(&sbox, byte(w)))
}

func (c *Cipher) expandKeyCT(key []byte) {
	nk := len(key) / 4
	n := 4 * (c.rounds + 1)
	if cap(c.enc) < n {
		c.enc = make([]uint32, n)
	}
	c.enc = c.enc[:n]
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	for i := nk; i < n; i++ {
		t := c.enc[i-1]
		switch {
		case i%nk == 0:
			t = subWordCT(rotWord(t)) ^ uint32(rcon[i/nk-1])<<24
		case nk > 6 && i%nk == 4:
			t = subWordCT(t)
		}
		c.enc[i] = c.enc[i-nk] ^ t
	}
}

// EncryptCT encrypts one 16-byte block from src into dst (which may
// alias) with a key-independent access pattern: byte-wise SubBytes via
// masked S-box scans and arithmetic-mask MixColumns instead of the Te
// tables. There is no Recorder parameter — a uniform trace would record
// nothing an attacker could use, and the experiments use this path as the
// leak-free control.
//
//lint:ignore unused lint victim: the constant-time AES that ctflow must prove leak-free; no experiment runs it
func (c *Cipher) EncryptCT(dst, src []byte) {
	_ = src[15]
	_ = dst[15]

	// Round keys as bytes, column-major like the state.
	var rk [240]byte
	n := 4 * (c.rounds + 1)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(rk[4*i:], c.enc[i])
	}

	// State bytes in FIPS-197 column-major order: s[4*col+row].
	var s [16]byte
	for i := 0; i < 16; i++ {
		s[i] = src[i] ^ rk[i]
	}

	for r := 1; r < c.rounds; r++ {
		subShiftCT(&s)
		for col := 0; col < 4; col++ {
			a0, a1, a2, a3 := s[4*col], s[4*col+1], s[4*col+2], s[4*col+3]
			s[4*col] = ctsafe.Xtime(a0) ^ ctsafe.Xtime(a1) ^ a1 ^ a2 ^ a3
			s[4*col+1] = a0 ^ ctsafe.Xtime(a1) ^ ctsafe.Xtime(a2) ^ a2 ^ a3
			s[4*col+2] = a0 ^ a1 ^ ctsafe.Xtime(a2) ^ ctsafe.Xtime(a3) ^ a3
			s[4*col+3] = ctsafe.Xtime(a0) ^ a0 ^ a1 ^ a2 ^ ctsafe.Xtime(a3)
		}
		for i := 0; i < 16; i++ {
			s[i] ^= rk[16*r+i]
		}
	}

	subShiftCT(&s)
	for i := 0; i < 16; i++ {
		dst[i] = s[i] ^ rk[16*c.rounds+i]
	}
}

// subShiftCT applies SubBytes (masked scans) and ShiftRows (a fixed
// permutation) in place.
func subShiftCT(s *[16]byte) {
	var t [16]byte
	for row := 0; row < 4; row++ {
		for col := 0; col < 4; col++ {
			t[4*col+row] = ctsafe.LookupByte(&sbox, s[4*((col+row)%4)+row])
		}
	}
	*s = t
}
