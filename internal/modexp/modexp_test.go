package modexp

import (
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"randfill/internal/cache"
	"randfill/internal/rng"
)

func mustNew(t *testing.T, base, mod int64, w uint) *Exponentiator {
	t.Helper()
	e, err := New(big.NewInt(base), big.NewInt(mod), w)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExpMatchesBigInt(t *testing.T) {
	mod := big.NewInt(1000003) // prime
	base := big.NewInt(65537)
	for _, w := range []uint{1, 2, 4, 5, 8} {
		e, err := New(base, mod, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []int64{0, 1, 2, 15, 16, 255, 1 << 20, 998877} {
			got := e.Exp(big.NewInt(x), nil)
			want := new(big.Int).Exp(base, big.NewInt(x), mod)
			if got.Cmp(want) != 0 {
				t.Errorf("w=%d x=%d: got %v want %v", w, x, got, want)
			}
		}
	}
}

func TestExpProperty(t *testing.T) {
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	base := big.NewInt(3)
	e, err := New(base, mod, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw [16]byte) bool {
		x := new(big.Int).SetBytes(raw[:])
		return e.Exp(x, nil).Cmp(new(big.Int).Exp(base, x, mod)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(big.NewInt(2), big.NewInt(100), 0); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := New(big.NewInt(2), big.NewInt(100), 9); err == nil {
		t.Error("w=9 accepted")
	}
	if _, err := New(big.NewInt(2), big.NewInt(0), 4); err == nil {
		t.Error("zero modulus accepted")
	}
}

func TestWindowDecomposition(t *testing.T) {
	e := mustNew(t, 2, 1000003, 4)
	if e.TableSize() != 16 {
		t.Errorf("TableSize = %d", e.TableSize())
	}
	if e.Windows(128) != 32 || e.Windows(127) != 32 || e.Windows(129) != 33 {
		t.Error("window counts wrong")
	}
	// Lookup sequence equals the exponent's windows MSB-first.
	x := big.NewInt(0xABCD)
	var got []int
	e.Exp(x, recorderFunc(func(index, window int) { got = append(got, index) }))
	want := []int{0xA, 0xB, 0xC, 0xD}
	if len(got) != len(want) {
		t.Fatalf("lookups %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lookups %v, want %v", got, want)
		}
	}
}

type recorderFunc func(index, window int)

func (f recorderFunc) Lookup(index, window int) { f(index, window) }

func TestLayout(t *testing.T) {
	lay := DefaultLayout()
	if got := len(lay.EntryLines(0)); got != 2 {
		t.Errorf("128-byte entry spans %d lines, want 2", got)
	}
	r := lay.TableRegion(16)
	if r.NumLines() != 32 {
		t.Errorf("16-entry table spans %d lines, want 32", r.NumLines())
	}
	for i := 0; i < 16; i++ {
		for _, l := range lay.EntryLines(i) {
			if !slices.Contains(r.Lines(), l) {
				t.Fatalf("entry %d line %d outside table region", i, l)
			}
		}
	}
}

func sa32k(src *rng.Source) cache.Cache {
	return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
}

func TestSpyRecoversExponentUnderDemandFetch(t *testing.T) {
	// Percival-style attack: with demand fetch, one traced
	// exponentiation leaks the whole exponent.
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	e, err := New(big.NewInt(7), mod, 4)
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := new(big.Int).SetString("DEADBEEFCAFEBABE0123456789ABCDEF", 16)
	res := Spy(e, secret, DefaultLayout(), sa32k, rng.Window{}, 1)
	if !res.Complete {
		t.Fatal("attack observation incomplete under demand fetch")
	}
	if res.CorrectWindows != res.Windows {
		t.Fatalf("recovered %d/%d windows", res.CorrectWindows, res.Windows)
	}
	if res.Recovered.Cmp(secret) != 0 {
		t.Fatalf("recovered %x, want %x", res.Recovered, secret)
	}
}

func TestSpyDefeatedByRandomFill(t *testing.T) {
	// With a window covering the 32-line multiplier table, the observed
	// entry is a random neighbor: recovery collapses to chance
	// (1/16 per window).
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	e, err := New(big.NewInt(7), mod, 4)
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := new(big.Int).SetString("DEADBEEFCAFEBABE0123456789ABCDEF", 16)
	res := Spy(e, secret, DefaultLayout(), sa32k, rng.Window{A: 32, B: 31}, 2)
	if res.Recovered.Cmp(secret) == 0 {
		t.Fatal("exponent recovered despite random fill")
	}
	// 32 windows at 1/16 chance each → expect ~2 correct; allow noise.
	if res.CorrectWindows > res.Windows/3 {
		t.Errorf("recovered %d/%d windows under random fill, want ≈ chance",
			res.CorrectWindows, res.Windows)
	}
}
