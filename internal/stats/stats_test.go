package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningMeanVariance(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if math.Abs(r.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", r.Variance())
	}
	if math.Abs(r.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", r.StdDev())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 {
		t.Error("empty Running must report zeros")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 {
		t.Errorf("single sample: mean %v var %v", r.Mean(), r.Variance())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e10 {
				return true // skip pathological inputs
			}
		}
		var whole Running
		for _, x := range xs {
			whole.Add(x)
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var a, b Running
		for _, x := range xs[:k] {
			a.Add(x)
		}
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.N() != whole.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		scale := 1 + math.Abs(whole.Mean())
		return math.Abs(a.Mean()-whole.Mean()) < 1e-9*scale &&
			math.Abs(a.Variance()-whole.Variance()) < 1e-6*(1+whole.Variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupedArgMin(t *testing.T) {
	g := NewGrouped(256)
	for k := 0; k < 256; k++ {
		base := 100.0
		if k == 160 {
			base = 90 // the collision value has lower mean time
		}
		for i := 0; i < 10; i++ {
			g.Add(k, base+float64(i%3))
		}
	}
	if got := g.ArgMin(); got != 160 {
		t.Errorf("ArgMin = %d, want 160", got)
	}
	if g.Count(160) != 10 {
		t.Errorf("Count(160) = %d", g.Count(160))
	}
}

func TestGroupedArgMinIgnoresEmpty(t *testing.T) {
	g := NewGrouped(4)
	g.Add(2, 5)
	g.Add(3, 7)
	if got := g.ArgMin(); got != 2 {
		t.Errorf("ArgMin = %d, want 2", got)
	}
	empty := NewGrouped(4)
	if got := empty.ArgMin(); got != -1 {
		t.Errorf("ArgMin on empty = %d, want -1", got)
	}
}

func TestGroupedGrandMean(t *testing.T) {
	g := NewGrouped(2)
	g.Add(0, 1)
	g.Add(0, 3)
	g.Add(1, 5)
	if got := g.GrandMean(); math.Abs(got-3) > 1e-12 {
		t.Errorf("GrandMean = %v, want 3", got)
	}
	if g.Mean(0) != 2 || g.Mean(1) != 5 {
		t.Errorf("group means = %v, %v", g.Mean(0), g.Mean(1))
	}
}
