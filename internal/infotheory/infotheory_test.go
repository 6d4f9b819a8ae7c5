package infotheory

import (
	"math"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

func TestCapacityDemandFetchIsLogM(t *testing.T) {
	for _, m := range []int{8, 16, 64, 128} {
		got := Capacity(m, 0, 0)
		want := math.Log2(float64(m))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Capacity(%d,0,0) = %v, want %v", m, got, want)
		}
	}
}

func TestCapacityDecreasesWithWindow(t *testing.T) {
	m := 16
	prev := math.Inf(1)
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		win := rng.Symmetric(w)
		c := Capacity(m, win.A, win.B)
		if c > prev+1e-9 {
			t.Errorf("capacity increased at window %d: %v > %v", w, c, prev)
		}
		prev = c
	}
}

func TestCapacityNeverClosesCompletely(t *testing.T) {
	// The boundary effect keeps the storage channel open (Section V.B).
	c := Capacity(16, 16, 15)
	if c <= 0 {
		t.Errorf("capacity with covering window = %v, want > 0 (boundary effect)", c)
	}
	if c > 1 {
		t.Errorf("capacity %v too large for a covering window", c)
	}
}

func TestCapacityOrderOfMagnitudeDrop(t *testing.T) {
	// Paper: "the channel capacity is already reduced by more than one
	// order of magnitude when the window size is twice the size of the
	// security-critical region."
	for _, m := range []int{16, 64, 128} {
		w := rng.Symmetric(2 * m)
		nc := NormalizedCapacity(m, w.A, w.B)
		if nc > 0.1 {
			t.Errorf("M=%d window=2M: normalized capacity %v > 0.1", m, nc)
		}
	}
}

func TestCapacityBoundaryEffectShrinksWithM(t *testing.T) {
	// Larger security-critical regions leak relatively less at the same
	// normalized window size.
	w8 := rng.Symmetric(2 * 8)
	w128 := rng.Symmetric(2 * 128)
	small := NormalizedCapacity(8, w8.A, w8.B)
	large := NormalizedCapacity(128, w128.A, w128.B)
	if large >= small {
		t.Errorf("normalized capacity M=128 (%v) not below M=8 (%v)", large, small)
	}
}

func TestCapacityDegenerate(t *testing.T) {
	if Capacity(0, 0, 0) != 0 {
		t.Error("M=0 capacity not 0")
	}
	if Capacity(1, 0, 0) != 0 {
		t.Error("M=1 carries no information, capacity must be 0")
	}
}

func TestMeasurementsRequired(t *testing.T) {
	// Zero signal → unattackable.
	if !math.IsInf(MeasurementsRequired(0, 179, 50, 0.99), 1) {
		t.Error("zero signal must require infinite measurements")
	}
	// Stronger signal → fewer measurements, monotonically.
	n1 := MeasurementsRequired(0.6, 179, 500, 0.99)
	n2 := MeasurementsRequired(0.3, 179, 500, 0.99)
	n3 := MeasurementsRequired(0.05, 179, 500, 0.99)
	if !(n1 < n2 && n2 < n3) {
		t.Errorf("measurement counts not monotone: %v %v %v", n1, n2, n3)
	}
	// Halving the signal quadruples the cost.
	if math.Abs(n2/n1-4) > 1e-6 {
		t.Errorf("n2/n1 = %v, want 4", n2/n1)
	}
	// Higher confidence costs more.
	if MeasurementsRequired(0.3, 179, 500, 0.999) <= MeasurementsRequired(0.3, 179, 500, 0.9) {
		t.Error("higher alpha must require more measurements")
	}
}

func newSA32K(src *rng.Source) cache.Cache {
	return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
}

func TestMonteCarloDemandFetchSignal(t *testing.T) {
	// With demand fetch (window size 1), P1 = 1 exactly (a collision
	// with a previously accessed line always hits from a clean cache)
	// and P1-P2 is large — the Table III "size=1" column.
	res := MonteCarloP1P2(P1P2Config{
		NewCache: newSA32K,
		Window:   rng.Window{},
		Trials:   4000,
		Region:   mem.Region{Base: 0x11000, Size: 1024},
		Seed:     1,
	})
	if res.P1 != 1 {
		t.Errorf("P1 = %v, want exactly 1 under demand fetch", res.P1)
	}
	if d := res.Diff(); d < 0.4 || d > 0.8 {
		t.Errorf("P1-P2 = %v, want large (paper: 0.652)", d)
	}
}

func TestMonteCarloSignalDecaysWithWindow(t *testing.T) {
	region := mem.Region{Base: 0x11000, Size: 1024}
	prev := 1.0
	for _, size := range []int{1, 2, 4, 8, 16, 32} {
		res := MonteCarloP1P2(P1P2Config{
			NewCache: newSA32K,
			Window:   rng.Symmetric(size),
			Trials:   4000,
			Region:   region,
			Seed:     7,
		})
		d := res.Diff()
		if d > prev+0.02 {
			t.Errorf("window %d: P1-P2 %v did not decay (prev %v)", size, d, prev)
		}
		prev = d
	}
	if prev > 0.05 {
		t.Errorf("window 32: P1-P2 = %v, want ≈ 0 (paper: 0.006)", prev)
	}
}

func TestMonteCarloCoveringWindowZerosSignal(t *testing.T) {
	// With a,b >= M-1 the window covers the table for every lookup and
	// P1-P2 ≈ 0 (Section V.A's sufficient condition).
	res := MonteCarloP1P2(P1P2Config{
		NewCache: newSA32K,
		Window:   rng.Window{A: 16, B: 15},
		Trials:   20000,
		Region:   mem.Region{Base: 0x11000, Size: 1024},
		Seed:     3,
	})
	if d := math.Abs(res.Diff()); d > 0.02 {
		t.Errorf("covering window: |P1-P2| = %v, want ≈ 0", d)
	}
}

// TestNormalQuantileKnownValues pins Eq. 5's z_alpha to published
// standard normal quantiles.
func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.99, 2.326348},
		{0.9999, 3.719016},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.6, 0.9, 0.99, 0.999} {
		if d := normalQuantile(p) + normalQuantile(1-p); math.Abs(d) > 1e-6 {
			t.Errorf("quantile asymmetry at p=%v: %v", p, d)
		}
	}
}
