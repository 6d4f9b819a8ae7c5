// Package aes implements a table-based AES-128 cipher with the same lookup
// table structure as OpenSSL's C implementation: four 1 KB tables Te0..Te3
// for the main encryption rounds plus a 1 KB table Te4 for the final round,
// and the corresponding Td0..Td4 for decryption — ten 1 KB tables in total,
// exactly the security-critical data set of the paper's case study
// (Section II.C).
//
// The package provides both a plain software cipher (validated against
// crypto/aes in tests) and traced encryption/decryption that reports every
// key-dependent table lookup to a recorder, from which memory access traces
// for the cache simulator are built.
package aes

// The tables are generated at package initialization from GF(2^8)
// arithmetic rather than embedded as literals, and are validated against
// crypto/aes by the test suite.

var (
	sbox    [256]byte
	invSbox [256]byte

	te0, te1, te2, te3, te4 [256]uint32
	td0, td1, td2, td3, td4 [256]uint32

	rcon [10]byte
)

// xtime multiplies by x (i.e. 2) in GF(2^8) with the AES polynomial.
func xtime(b byte) byte {
	v := b << 1
	if b&0x80 != 0 {
		v ^= 0x1b
	}
	return v
}

// gmul multiplies a and b in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

func init() {
	// S-box: multiplicative inverse followed by the affine transform.
	// Inverses are generated from log/antilog tables over generator 3.
	var alog [256]byte
	var log [256]byte
	p := byte(1)
	for i := 0; i < 255; i++ {
		alog[i] = p
		log[p] = byte(i)
		p = gmul(p, 3)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return alog[(255-int(log[b]))%255]
	}
	for i := 0; i < 256; i++ {
		v := inv(byte(i))
		s := v ^ rotl8(v, 1) ^ rotl8(v, 2) ^ rotl8(v, 3) ^ rotl8(v, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}

	// Round constants.
	c := byte(1)
	for i := range rcon {
		rcon[i] = c
		c = xtime(c)
	}

	// Encryption T-tables: Te0[x] = word(2s, s, s, 3s) with rotations.
	for i := 0; i < 256; i++ {
		s := sbox[i]
		w := uint32(gmul(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(gmul(s, 3))
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
		// Te4: the S-box byte replicated into all four byte lanes,
		// as in OpenSSL's final-round table.
		te4[i] = uint32(s) * 0x01010101
	}

	// Decryption T-tables: Td0[x] = word(0e·is, 09·is, 0d·is, 0b·is)
	// where is = InvSbox[x].
	for i := 0; i < 256; i++ {
		s := invSbox[i]
		w := uint32(gmul(s, 0x0e))<<24 | uint32(gmul(s, 0x09))<<16 |
			uint32(gmul(s, 0x0d))<<8 | uint32(gmul(s, 0x0b))
		td0[i] = w
		td1[i] = w>>8 | w<<24
		td2[i] = w>>16 | w<<16
		td3[i] = w>>24 | w<<8
		td4[i] = uint32(s) * 0x01010101
	}
}
