package aes

import (
	"bytes"
	"runtime"
	"testing"

	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// sameCompiled fails unless got and want hold the same packed words and,
// where a word is an escape, the same escape record.
func sameCompiled(t *testing.T, name string, got, want *trace.Compiled) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d words, want %d", name, got.Len(), want.Len())
	}
	gw, ww := got.Words(), want.Words()
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", name, i, gw[i], ww[i])
		}
		if trace.IsEscape(ww[i]) && got.At(i) != want.At(i) {
			t.Fatalf("%s: escape %d = %+v, want %+v", name, i, got.At(i), want.At(i))
		}
	}
}

// cbcInputs returns a tracer and a CBC plaintext of size bytes and iv.
func cbcInputs(seed uint64, size int) (*Tracer, []byte, []byte) {
	src := rng.New(seed)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, size)
	src.Bytes(pt)
	c, _ := New(key[:])
	return &Tracer{Cipher: c, Layout: DefaultLayout()}, pt, iv[:]
}

// TestPackedCBCMatchesRecords requires the packed CBC traces to equal the
// compiled record traces word for word: encryption, decryption, and
// encryption then decryption appended into one Compiled, fresh and after
// an earlier trace.
func TestPackedCBCMatchesRecords(t *testing.T) {
	for _, size := range []int{16, 48, 1024} {
		tr, pt, iv := cbcInputs(uint64(size), size)
		ctext, enc, err := tr.EncryptCBC(pt, iv)
		if err != nil {
			t.Fatal(err)
		}
		_, dec, err := tr.DecryptCBC(ctext, iv)
		if err != nil {
			t.Fatal(err)
		}

		var ct trace.Compiled
		got, err := tr.EncryptCBCInto(&ct, pt, iv)
		if err != nil || !bytes.Equal(got, ctext) {
			t.Fatalf("EncryptCBCInto: ciphertext %x, %v; want %x", got, err, ctext)
		}
		sameCompiled(t, "encryption", &ct, trace.Compile(enc))

		ct = trace.Compiled{}
		out := trace.Pack(&ct)
		got, err = tr.decryptCBC(&out, ctext, iv, len(ctext)/BlockSize)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("packed decryption: plaintext %x, %v; want %x", got, err, pt)
		}
		sameCompiled(t, "decryption", &ct, trace.Compile(dec))

		encDec := append(append(mem.Trace{}, enc...), dec...)
		ct = trace.Compiled{}
		if err := tr.EncryptDecryptCBCInto(&ct, pt, iv); err != nil {
			t.Fatal(err)
		}
		sameCompiled(t, "encryption+decryption", &ct, trace.Compile(encDec))
		if err := tr.EncryptDecryptCBCInto(&ct, pt, iv); err != nil {
			t.Fatal(err)
		}
		sameCompiled(t, "appended encryption+decryption", &ct, trace.Compile(append(encDec, encDec...)))
	}
	var ct trace.Compiled
	if err := (&Tracer{}).EncryptDecryptCBCInto(&ct, make([]byte, 15), make([]byte, 16)); err == nil || ct.Len() != 0 {
		t.Errorf("EncryptDecryptCBCInto of a partial block: %d words, err %v; want none and an error", ct.Len(), err)
	}
}

// TestPackedCBCAllocation pins the packed CBC build: the Figure 8 crypto
// trace, encryption then decryption of 8 KB, allocates at most about 1.1
// words of 8 bytes per access, in one array, and a trace appended to it
// reserves only its own part.
func TestPackedCBCAllocation(t *testing.T) {
	tr, pt, iv := cbcInputs(9, 8*1024)
	var warm trace.Compiled
	if err := tr.EncryptDecryptCBCInto(&warm, pt, iv); err != nil { // builds the inverse key schedule
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var ct trace.Compiled
	runtime.ReadMemStats(&before)
	err := tr.EncryptDecryptCBCInto(&ct, pt, iv)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, words := after.TotalAlloc-before.TotalAlloc, uint64(8*ct.Len())
	t.Logf("%d accesses: %d B allocated (%.2f B per access)", ct.Len(), got, float64(got)/float64(ct.Len()))
	if got < words || float64(got) > 1.1*float64(words) {
		t.Errorf("EncryptDecryptCBCInto allocated %d B for %d B of words, want at most 1.1x", got, words)
	}

	// Appended to a trace that is already there, the reservation sizes
	// only the new part. (The new part's first block may still grow the
	// array by append's factor.) Sizing the whole trace again would hold
	// several times its length.
	had := ct.Len()
	if err := tr.EncryptDecryptCBCInto(&ct, pt[:3*BlockSize], iv); err != nil {
		t.Fatal(err)
	}
	if c := cap(ct.Words()); c >= 2*ct.Len() {
		t.Errorf("after %d words, appending %d: capacity %d for %d words", had, ct.Len()-had, c, ct.Len())
	}
}
