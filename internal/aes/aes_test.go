package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"crypto/cipher"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"randfill/internal/mem"
	"randfill/internal/rng"
)

func TestSboxProperties(t *testing.T) {
	// FIPS-197 anchor values.
	if sbox[0x00] != 0x63 || sbox[0x01] != 0x7c || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatalf("S-box anchors wrong: %x %x %x %x", sbox[0], sbox[1], sbox[0x53], sbox[0xff])
	}
	// Bijectivity and inverse consistency.
	seen := make(map[byte]bool)
	for i := 0; i < 256; i++ {
		s := sbox[i]
		if seen[s] {
			t.Fatalf("S-box not a permutation: duplicate %#x", s)
		}
		seen[s] = true
		if invSbox[s] != byte(i) {
			t.Fatalf("invSbox[sbox[%#x]] = %#x", i, invSbox[s])
		}
	}
}

func TestEncryptMatchesStdlib(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		var key, pt [16]byte
		src.Bytes(key[:])
		src.Bytes(pt[:])
		c, err := New(key[:])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var got, want [16]byte
		c.Encrypt(got[:], pt[:], nil)
		ref.Encrypt(want[:], pt[:])
		if got != want {
			t.Fatalf("trial %d: encrypt mismatch\nkey %x\npt  %x\ngot %x\nwant %x",
				trial, key, pt, got, want)
		}
	}
}

func TestDecryptMatchesStdlib(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 200; trial++ {
		var key, ct [16]byte
		src.Bytes(key[:])
		src.Bytes(ct[:])
		c, err := New(key[:])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var got, want [16]byte
		c.Decrypt(got[:], ct[:], nil)
		ref.Decrypt(want[:], ct[:])
		if got != want {
			t.Fatalf("trial %d: decrypt mismatch", trial)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(key, pt [16]byte) bool {
		c, err := New(key[:])
		if err != nil {
			return false
		}
		var ct, rt [16]byte
		c.Encrypt(ct[:], pt[:], nil)
		c.Decrypt(rt[:], ct[:], nil)
		return rt == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeySizes(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := New(make([]byte, 17)); err == nil {
		t.Error("17-byte key accepted")
	}
	// AES-192 and AES-256 validate against the standard library too.
	src := rng.New(8)
	for _, n := range []int{24, 32} {
		for trial := 0; trial < 50; trial++ {
			key := make([]byte, n)
			src.Bytes(key)
			var pt [16]byte
			src.Bytes(pt[:])
			c, err := New(key)
			if err != nil {
				t.Fatal(err)
			}
			wantRounds := map[int]int{24: 12, 32: 14}[n]
			if c.Rounds() != wantRounds {
				t.Fatalf("AES-%d rounds = %d, want %d", n*8, c.Rounds(), wantRounds)
			}
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			var got, want, rt [16]byte
			c.Encrypt(got[:], pt[:], nil)
			ref.Encrypt(want[:], pt[:])
			if got != want {
				t.Fatalf("AES-%d encrypt mismatch", n*8)
			}
			c.Decrypt(rt[:], got[:], nil)
			if rt != pt {
				t.Fatalf("AES-%d round trip failed", n*8)
			}
		}
	}
}

func TestCBCMatchesStdlib(t *testing.T) {
	src := rng.New(3)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, 512)
	src.Bytes(pt)

	c, _ := New(key[:])
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	got, _, err := tr.EncryptCBC(pt, iv[:])
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := stdaes.NewCipher(key[:])
	want := make([]byte, len(pt))
	cipher.NewCBCEncrypter(ref, iv[:]).CryptBlocks(want, pt)
	if !bytes.Equal(got, want) {
		t.Fatal("CBC encrypt mismatch vs crypto/cipher")
	}

	rt, _, err := tr.DecryptCBC(got, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt, pt) {
		t.Fatal("CBC round trip failed")
	}
}

func TestCBCErrors(t *testing.T) {
	c, _ := New(make([]byte, 16))
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	if _, _, err := tr.EncryptCBC(make([]byte, 15), make([]byte, 16)); err == nil {
		t.Error("partial block accepted")
	}
	if _, _, err := tr.EncryptCBC(make([]byte, 16), make([]byte, 8)); err == nil {
		t.Error("short iv accepted")
	}
	if _, _, err := tr.DecryptCBC(make([]byte, 17), make([]byte, 16)); err == nil {
		t.Error("partial block accepted by decrypt")
	}
}

// rounds128 is the AES-128 round count.
const rounds128 = 10

// inRegion reports whether address a falls inside region r.
func inRegion(r mem.Region, a mem.Addr) bool { return a >= r.Base && uint64(a-r.Base) < r.Size }

// countingRec counts lookups per table and validates callback invariants.
type countingRec struct {
	t      *testing.T
	counts [NumTables]int
	firsts int
	rounds map[int]bool
}

func (r *countingRec) Lookup(table int, index byte, round int, first bool) {
	if table < 0 || table >= NumTables {
		r.t.Fatalf("table id %d out of range", table)
	}
	if round < 1 || round > rounds128 {
		r.t.Fatalf("round %d out of range", round)
	}
	r.counts[table]++
	if first {
		r.firsts++
	}
	if r.rounds == nil {
		r.rounds = make(map[int]bool)
	}
	r.rounds[round] = true
}

func TestEncryptLookupCounts(t *testing.T) {
	// Per block: rounds 1..9 use Te0..Te3 (4 lookups each per table),
	// the final round uses Te4 16 times — the paper's "16 table lookups
	// to T4 for each block encryption".
	c, _ := New(make([]byte, 16))
	rec := &countingRec{t: t}
	var out [16]byte
	c.Encrypt(out[:], make([]byte, 16), rec)
	for tab := TableTe0; tab <= TableTe3; tab++ {
		if rec.counts[tab] != 36 {
			t.Errorf("table %d lookups = %d, want 36", tab, rec.counts[tab])
		}
	}
	if rec.counts[TableTe4] != 16 {
		t.Errorf("Te4 lookups = %d, want 16", rec.counts[TableTe4])
	}
	if rec.firsts != rounds128 {
		t.Errorf("first-of-round callbacks = %d, want %d", rec.firsts, rounds128)
	}
	if len(rec.rounds) != rounds128 {
		t.Errorf("rounds seen = %d", len(rec.rounds))
	}
	for tab := TableTd0; tab <= TableTd4; tab++ {
		if rec.counts[tab] != 0 {
			t.Errorf("encryption touched decryption table %d", tab)
		}
	}
}

func TestDecryptLookupCounts(t *testing.T) {
	c, _ := New(make([]byte, 16))
	rec := &countingRec{t: t}
	var out [16]byte
	c.Decrypt(out[:], make([]byte, 16), rec)
	for tab := TableTd0; tab <= TableTd3; tab++ {
		if rec.counts[tab] != 36 {
			t.Errorf("table %d lookups = %d, want 36", tab, rec.counts[tab])
		}
	}
	if rec.counts[TableTd4] != 16 {
		t.Errorf("Td4 lookups = %d, want 16", rec.counts[TableTd4])
	}
}

// lastRoundRec captures the final-round (Te4) lookup indices in order.
type lastRoundRec struct{ idx []byte }

func (r *lastRoundRec) Lookup(table int, index byte, round int, first bool) {
	if table == TableTe4 {
		r.idx = append(r.idx, index)
	}
}

func TestFinalRoundRelation(t *testing.T) {
	// The final-round attack premise: ciphertext byte c_i = S[x] ^ k10_i
	// where x is the corresponding final-round lookup index. Verify the
	// relation the attack inverts: for every ciphertext byte there is a
	// final-round index x with S[x] = c_i ^ k10_i.
	src := rng.New(4)
	var key, pt [16]byte
	src.Bytes(key[:])
	src.Bytes(pt[:])
	c, _ := New(key[:])
	rec := &lastRoundRec{}
	var ct [16]byte
	c.Encrypt(ct[:], pt[:], rec)
	if len(rec.idx) != 16 {
		t.Fatalf("captured %d final-round lookups", len(rec.idx))
	}
	k10 := c.LastRoundKey()
	// The i-th emitted Te4 lookup feeds output byte position out[i]
	// (column-major emission order in Encrypt matches output bytes
	// 0,1,2,3 of each word u0..u3).
	for i := 0; i < 16; i++ {
		if sbox[rec.idx[i]]^k10[i] != ct[i] {
			t.Fatalf("byte %d: S[x]^k10 = %#x, ct = %#x", i,
				sbox[rec.idx[i]]^k10[i], ct[i])
		}
	}
}

func TestLayoutAddresses(t *testing.T) {
	lay := DefaultLayout()
	for tab := 0; tab < NumTables; tab++ {
		r := lay.TableRegion(tab)
		if r.NumLines() != TableSize/mem.LineSize {
			t.Errorf("table %d spans %d lines", tab, r.NumLines())
		}
		for idx := 0; idx < 256; idx++ {
			a := lay.LookupAddr(tab, byte(idx))
			if !inRegion(r, a) {
				t.Fatalf("lookup addr %#x outside table %d region", uint64(a), tab)
			}
		}
		// 16 entries per line: indices 0..15 share a line, 16 starts
		// the next.
		line := func(idx byte) mem.Line { return mem.LineOf(lay.LookupAddr(tab, idx)) }
		if line(0) != line(15) {
			t.Error("indices 0 and 15 on different lines")
		}
		if line(15) == line(16) {
			t.Error("indices 15 and 16 share a line")
		}
	}
	if len(lay.EncTableRegions()) != 5 || len(lay.AllTableRegions()) != 10 {
		t.Error("region group sizes wrong")
	}
}

func TestTracerBlockTrace(t *testing.T) {
	c, _ := New(make([]byte, 16))
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	ct, trace := tr.EncryptBlock(make([]byte, 16), 0)

	// Ciphertext must match an untraced encryption.
	var want [16]byte
	c.Encrypt(want[:], make([]byte, 16), nil)
	if ct != want {
		t.Fatal("traced encryption produced different ciphertext")
	}

	secret := 0
	lay := DefaultLayout()
	for _, a := range trace {
		if a.Secret {
			secret++
			in := false
			for tab := 0; tab < NumTables; tab++ {
				if inRegion(lay.TableRegion(tab), a.Addr) {
					in = true
				}
			}
			if !in {
				t.Fatalf("secret access %#x outside all tables", uint64(a.Addr))
			}
		}
	}
	if secret != 160 {
		t.Errorf("secret accesses = %d, want 160", secret)
	}
	// The paper: security-critical accesses ≈ 24% of data accesses.
	frac := float64(secret) / float64(len(trace))
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("secret fraction = %.3f, want ≈ 0.24", frac)
	}
}

func TestTracerCBCTraceAndResult(t *testing.T) {
	src := rng.New(5)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, 1024)
	src.Bytes(pt)

	c, _ := New(key[:])
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	ct, trace, err := tr.EncryptCBC(pt, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := stdaes.NewCipher(key[:])
	want := make([]byte, len(pt))
	cipher.NewCBCEncrypter(ref, iv[:]).CryptBlocks(want, pt)
	if !bytes.Equal(ct, want) {
		t.Fatal("traced CBC ciphertext mismatch")
	}
	blocks := len(pt) / 16
	if secret := countSecret(trace); secret != 160*blocks {
		t.Errorf("secret accesses = %d, want %d", secret, 160*blocks)
	}

	rt, dtrace, err := tr.DecryptCBC(ct, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rt, pt) {
		t.Fatal("traced CBC decrypt round trip failed")
	}
	if secret := countSecret(dtrace); secret != 160*blocks {
		t.Errorf("decrypt secret accesses = %d", secret)
	}
}

// TestTracerCBCAllocatesTraceOnce pins the CBC tracers' presizing: after
// the first block they reserve the whole trace, so the bytes one call
// allocates stay within 1.1x of the returned trace's size instead of the
// several-fold cost of growing it by appends.
func TestTracerCBCAllocatesTraceOnce(t *testing.T) {
	src := rng.New(7)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, 8*1024)
	src.Bytes(pt)
	c, _ := New(key[:])
	tr := &Tracer{Cipher: c, Layout: DefaultLayout()}
	ct, _, err := tr.EncryptCBC(pt, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.DecryptCBC(ct, iv[:]); err != nil { // builds the inverse key schedule
		t.Fatal(err)
	}

	check := func(name string, run func() (mem.Trace, error)) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		trace, err := run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		size := uint64(len(trace)) * uint64(unsafe.Sizeof(mem.Access{}))
		if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(size) {
			t.Errorf("%s allocated %d bytes for a %d-byte trace (> 1.1x)", name, got, size)
		}
	}
	check("EncryptCBC", func() (mem.Trace, error) {
		_, trace, err := tr.EncryptCBC(pt, iv[:])
		return trace, err
	})
	check("DecryptCBC", func() (mem.Trace, error) {
		_, trace, err := tr.DecryptCBC(ct, iv[:])
		return trace, err
	})
}

func countSecret(tr mem.Trace) int {
	n := 0
	for _, a := range tr {
		if a.Secret {
			n++
		}
	}
	return n
}

func TestLastRoundKeyMatchesSchedule(t *testing.T) {
	// Round-trip check through stdlib: encrypting the zero block and
	// XORing out the last-round key must equal the S-box of the
	// final-round state — indirectly validated by TestFinalRoundRelation;
	// here just check determinism and length.
	c, _ := New([]byte("0123456789abcdef"))
	k1 := c.LastRoundKey()
	k2 := c.LastRoundKey()
	if k1 != k2 {
		t.Error("LastRoundKey not deterministic")
	}
}
