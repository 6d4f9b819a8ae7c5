package rng

import (
	"sort"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	a := root.Split(1)
	b := root.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split streams overlap: %d identical outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 7, 16, 255, 1000} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	s := New(11)
	const n, draws = 16, 160000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: count %d far from expected %d", i, c, want)
		}
	}
}

func TestBytesConsumesWholeWords(t *testing.T) {
	// v2 stream contract (see the package comment): Bytes lays each Uint64
	// draw out little-endian and consumes ceil(len(p)/8) draws total.
	ref := New(17)
	var words [3]uint64
	for i := range words {
		words[i] = ref.Uint64()
	}
	s := New(17)
	var buf [20]byte
	s.Bytes(buf[:])
	for i := range buf {
		if want := byte(words[i/8] >> (8 * (i % 8))); buf[i] != want {
			t.Fatalf("buf[%d] = %#x, want %#x", i, buf[i], want)
		}
	}
	advanced := New(17)
	for i := 0; i < 3; i++ {
		advanced.Uint64()
	}
	if s.Uint64() != advanced.Uint64() {
		t.Error("Bytes(20 bytes) did not consume exactly 3 draws")
	}
}

func TestReadMatchesBytes(t *testing.T) {
	a, b := New(23), New(23)
	p := make([]byte, 33)
	q := make([]byte, 33)
	a.Bytes(p)
	n, err := b.Read(q)
	if n != len(q) || err != nil {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("Read diverged from Bytes at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(9)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) frequency %v", frac)
	}
}

func TestWindowSizeAndZero(t *testing.T) {
	if (Window{}).Size() != 1 || !(Window{}).Zero() {
		t.Error("zero window must have size 1 and be Zero")
	}
	w := Window{A: 16, B: 15}
	if w.Size() != 32 || w.Zero() {
		t.Errorf("window %v: size %d zero %v", w, w.Size(), w.Zero())
	}
}

func TestSymmetricForward(t *testing.T) {
	// The paper's bidirectional window for size 2^n is [i-2^(n-1), i+2^(n-1)-1].
	cases := []struct {
		size int
		want Window
	}{
		{1, Window{0, 0}},
		{2, Window{1, 0}},
		{4, Window{2, 1}},
		{32, Window{16, 15}},
	}
	for _, c := range cases {
		if got := Symmetric(c.size); got != c.want {
			t.Errorf("Symmetric(%d) = %v, want %v", c.size, got, c.want)
		}
		if got := Symmetric(c.size).Size(); got != c.size {
			t.Errorf("Symmetric(%d).Size() = %d", c.size, got)
		}
	}
	// The forward-only window of size 16 is [i, i+15].
	if got := (Window{0, 15}).Size(); got != 16 {
		t.Errorf("forward window [0,15] has size %d", got)
	}
}

func TestWindowGeneratorBounds(t *testing.T) {
	for _, w := range []Window{{0, 0}, {1, 0}, {2, 1}, {16, 15}, {4, 3}, {0, 15}, {3, 2}, {5, 7}} {
		g := NewWindowGenerator(New(21))
		g.SetWindow(w)
		for i := 0; i < 5000; i++ {
			off := g.Offset()
			if off < -w.A || off > w.B {
				t.Fatalf("window %v: offset %d out of bounds", w, off)
			}
		}
	}
}

func TestWindowGeneratorUniform(t *testing.T) {
	// Every line in the window must be reachable with roughly equal
	// probability — the uniformity Equation 6's P1 = 1/(a+b+1) relies on.
	w := Window{A: 16, B: 15}
	g := NewWindowGenerator(New(33))
	g.SetWindow(w)
	counts := make(map[int]int)
	const draws = 320000
	for i := 0; i < draws; i++ {
		counts[g.Offset()]++
	}
	if len(counts) != w.Size() {
		t.Fatalf("observed %d distinct offsets, want %d", len(counts), w.Size())
	}
	want := draws / w.Size()
	var offs []int
	for off := range counts {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	for _, off := range offs {
		if c := counts[off]; c < want*9/10 || c > want*11/10 {
			t.Errorf("offset %d: count %d far from %d", off, c, want)
		}
	}
}

func TestWindowGeneratorNonPowerOfTwo(t *testing.T) {
	w := Window{A: 2, B: 2} // size 5, exercises the general path
	g := NewWindowGenerator(New(13))
	g.SetWindow(w)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		off := g.Offset()
		if off < -2 || off > 2 {
			t.Fatalf("offset %d out of [-2,2]", off)
		}
		seen[off] = true
	}
	if len(seen) != 5 {
		t.Errorf("saw %d distinct offsets, want 5", len(seen))
	}
}

func TestWindowGeneratorZeroWindow(t *testing.T) {
	g := NewWindowGenerator(New(1))
	for i := 0; i < 100; i++ {
		if g.Offset() != 0 {
			t.Fatal("zero window must always produce offset 0")
		}
	}
}

func TestSetWindowPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetWindow with negative bound did not panic")
		}
	}()
	NewWindowGenerator(New(1)).SetWindow(Window{A: -1, B: 0})
}
