package mem

import (
	"testing"
	"testing/quick"
)

func TestLineOfAddrOfRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		l := LineOf(a)
		base := AddrOf(l)
		return base <= a && a < base+LineSize && LineOf(base) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetWithinLine(t *testing.T) {
	f := func(a Addr) bool {
		off := uint64(a) & (LineSize - 1)
		return off < LineSize && AddrOf(LineOf(a))+Addr(off) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineBoundaries(t *testing.T) {
	cases := []struct {
		addr Addr
		line Line
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{127, 1},
		{128, 2},
		{0x10000, 0x400},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%#x) = %d, want %d", uint64(c.addr), got, c.line)
		}
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Errorf("Kind strings: %v %v", Read, Write)
	}
	if s := Kind(9).String(); s != "Kind(9)" {
		t.Errorf("unknown kind string %q", s)
	}
}

func TestAccessInstructions(t *testing.T) {
	a := Access{NonMem: 5}
	if a.Instructions() != 6 {
		t.Errorf("Instructions() = %d, want 6", a.Instructions())
	}
}

func TestTraceInstructionsAndLines(t *testing.T) {
	tr := Trace{
		{Addr: 0, NonMem: 1},
		{Addr: 8, NonMem: 2},   // same line as 0
		{Addr: 64, NonMem: 0},  // next line
		{Addr: 200, NonMem: 3}, // line 3
	}
	if got := tr.Instructions(); got != 10 {
		t.Errorf("Instructions() = %d, want 10", got)
	}
	lines := tr.Lines()
	if len(lines) != 3 {
		t.Errorf("Lines() has %d entries, want 3", len(lines))
	}
	for _, want := range []Line{0, 1, 3} {
		if _, ok := lines[want]; !ok {
			t.Errorf("Lines() missing line %d", want)
		}
	}
}

func TestRegionLines(t *testing.T) {
	// A 1 KB table aligned to a line boundary spans exactly 16 lines,
	// the paper's M = 16 case study.
	r := Region{Base: 0x10000, Size: 1024}
	if got := r.NumLines(); got != 16 {
		t.Errorf("NumLines() = %d, want 16", got)
	}
	lines := r.Lines()
	if len(lines) != 16 {
		t.Fatalf("Lines() length %d, want 16", len(lines))
	}
	for i, l := range lines {
		if l != r.FirstLine()+Line(i) {
			t.Errorf("Lines()[%d] = %d, want %d", i, l, r.FirstLine()+Line(i))
		}
	}
}

func TestRegionUnaligned(t *testing.T) {
	// A region straddling a line boundary counts both partial lines.
	r := Region{Base: 60, Size: 8} // bytes 60..67 → lines 0 and 1
	if got := r.NumLines(); got != 2 {
		t.Errorf("NumLines() = %d, want 2", got)
	}
}

func TestRegionEmpty(t *testing.T) {
	r := Region{Base: 0x100, Size: 0}
	if r.NumLines() != 0 {
		t.Errorf("empty region NumLines() = %d", r.NumLines())
	}
	if len(r.Lines()) != 0 {
		t.Errorf("empty region Lines() = %v", r.Lines())
	}
}
