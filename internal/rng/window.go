package rng

import (
	"fmt"
	"strconv"
	"strings"
)

// Window is a neighborhood window [-A, +B] of line offsets around a demand
// miss line i, as configured in the random fill engine's range registers RR1
// and RR2 (paper Section IV.B). A window of [0,0] disables random fill: the
// cache behaves as a conventional demand-fetch cache.
type Window struct {
	A int // lines before the demand miss (lower bound is -A)
	B int // lines after the demand miss (upper bound is +B)
}

// Size returns the number of candidate lines in the window, a+b+1 (W in the
// paper's analysis).
func (w Window) Size() int { return w.A + w.B + 1 }

// Zero reports whether the window is [0,0], i.e. random fill is disabled and
// the cache performs conventional demand fetch.
func (w Window) Zero() bool { return w.A == 0 && w.B == 0 }

// Valid reports whether both bounds are non-negative.
func (w Window) Valid() bool { return w.A >= 0 && w.B >= 0 }

func (w Window) String() string { return fmt.Sprintf("[-%d,+%d]", w.A, w.B) }

// ParseWindow parses a window written "a,b", meaning [i-a, i+b], the form
// the command-line tools take. The lower bound may carry its sign, as the
// paper writes windows: "-16,15" is [-16,+15]. A negative upper bound is an
// error.
func ParseWindow(s string) (Window, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return Window{}, fmt.Errorf("window %q: want 'a,b'", s)
	}
	a, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	b, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return Window{}, fmt.Errorf("window %q: bad integers", s)
	}
	if a < 0 {
		a = -a
	}
	if w := (Window{A: a, B: b}); w.Valid() {
		return w, nil
	}
	return Window{}, fmt.Errorf("window %q: bound %d is negative", s, min(a, b))
}

// Symmetric returns the bidirectional window [-(size/2), +(size/2 - 1)] of
// the given power-of-two size, the form [i-2^(n-1), i+2^(n-1)-1] the paper
// uses for its security evaluation (Table III). Size 1 yields [0,0].
func Symmetric(size int) Window {
	if size <= 1 {
		return Window{}
	}
	return Window{A: size / 2, B: size - size/2 - 1}
}

// WindowGenerator models the random fill engine datapath of Figure 4:
// two range registers hold the lower bound -a and the mask 2^n - 1 for a
// power-of-two window size; a random byte R from the free-running RNG is
// masked to R' = R & (2^n - 1) and added to -a, giving a bounded random
// offset in [-a, -a + 2^n - 1]. The bounded offset can be computed ahead of
// the miss; the only operation on the critical path is the final add of the
// demand miss line address.
//
// The general (non-power-of-two) set_RR configuration is also supported, in
// which case offsets are drawn with Intn over the window size.
type WindowGenerator struct {
	src *Source

	// Range-register state.
	lower   int    // RR1: lower bound -a, stored sign-extended
	mask    uint64 // RR2: 2^n - 1 for power-of-two windows, or 0
	general Window // used when the window size is not a power of two

	pow2 bool
}

// NewWindowGenerator returns a generator drawing from src with the window
// set to [0,0] (random fill disabled).
func NewWindowGenerator(src *Source) *WindowGenerator {
	g := &WindowGenerator{src: src}
	g.SetWindow(Window{})
	return g
}

// SetWindow programs the range registers for window w. This is the model of
// the set_RR / set_window system calls (paper Table II): if the window size
// is a power of two the optimized mask datapath of Figure 4 is used,
// otherwise the general bounded draw is used. It panics on an invalid
// window, mirroring the OS rejecting bad syscall arguments.
func (g *WindowGenerator) SetWindow(w Window) {
	if !w.Valid() {
		panic(fmt.Sprintf("rng: invalid random fill window %v", w))
	}
	g.general = w
	size := w.Size()
	if size&(size-1) == 0 {
		g.pow2 = true
		g.lower = -w.A
		g.mask = uint64(size - 1)
	} else {
		g.pow2 = false
		g.lower = -w.A
		g.mask = 0
	}
}

// Window returns the currently programmed window.
func (g *WindowGenerator) Window() Window { return g.general }

// Offset draws a random line offset within the programmed window. With the
// window at [0,0] it always returns 0.
func (g *WindowGenerator) Offset() int {
	if g.general.Zero() {
		return 0
	}
	if g.pow2 {
		r := g.src.Uint64() & g.mask
		return g.lower + int(r)
	}
	return g.lower + g.src.Intn(g.general.Size())
}
