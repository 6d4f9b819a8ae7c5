package stats

import (
	"math"
	"testing"
)

// relTol is the documented merge tolerance: Welford Add and the pairwise
// merge formula round differently, so merge-of-shards matches sequential Add
// only to a relative ~1e-9 at these sample counts (see Running.Merge).
const relTol = 1e-9

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= relTol*math.Max(scale, 1)
}

// stream generates a deterministic but irregular sample stream.
func stream(seed uint64, n int) []float64 {
	out := make([]float64, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		// Mix magnitudes so rounding differences would actually show up.
		out[i] = float64(x%10000)/7 + float64(x>>60)*1e3
	}
	return out
}

func TestRunningMergeOfShardsMatchesSequentialAdd(t *testing.T) {
	samples := stream(3, 9001)
	var seq Running
	for _, x := range samples {
		seq.Add(x)
	}
	for _, shards := range []int{2, 3, 8, 16} {
		parts := make([]Running, shards)
		for i, x := range samples {
			parts[i%shards].Add(x)
		}
		var merged Running
		for i := range parts {
			merged.Merge(parts[i])
		}
		if merged.N() != seq.N() {
			t.Fatalf("shards=%d: N %d != %d", shards, merged.N(), seq.N())
		}
		if !relClose(merged.Mean(), seq.Mean()) {
			t.Errorf("shards=%d: mean %v vs sequential %v", shards, merged.Mean(), seq.Mean())
		}
		if !relClose(merged.Variance(), seq.Variance()) {
			t.Errorf("shards=%d: variance %v vs sequential %v", shards, merged.Variance(), seq.Variance())
		}
	}
}

func TestRunningMergeOrderInvariance(t *testing.T) {
	// Merging A,B,C in any order agrees within the documented tolerance.
	mk := func(seed uint64, n int) *Running {
		var r Running
		for _, x := range stream(seed, n) {
			r.Add(x)
		}
		return &r
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}
	var results []Running
	for _, ord := range orders {
		parts := []*Running{mk(7, 1000), mk(11, 313), mk(13, 4999)}
		var acc Running
		for _, i := range ord {
			acc.Merge(*parts[i])
		}
		results = append(results, acc)
	}
	for i, r := range results[1:] {
		if r.N() != results[0].N() {
			t.Fatalf("order %d: N %d != %d", i+1, r.N(), results[0].N())
		}
		if !relClose(r.Mean(), results[0].Mean()) || !relClose(r.Variance(), results[0].Variance()) {
			t.Errorf("order %v: mean/var (%v, %v) vs (%v, %v)", orders[i+1],
				r.Mean(), r.Variance(), results[0].Mean(), results[0].Variance())
		}
	}
}

func TestRunningMergeEmptyIsIdentity(t *testing.T) {
	var full Running
	for _, x := range stream(5, 100) {
		full.Add(x)
	}
	want := full
	var empty Running
	full.Merge(empty)
	if full != want {
		t.Errorf("merging an empty Running changed the receiver: %+v vs %+v", full, want)
	}
	var acc Running
	acc.Merge(want)
	if acc != want {
		// Merging INTO an empty receiver must copy the argument exactly —
		// this is what lets shard 0's clone seed an aggregate.
		t.Errorf("merge into empty receiver: %+v vs %+v", acc, want)
	}
}

func TestGroupedMergeMatchesSequentialAdd(t *testing.T) {
	const groups = 16
	samples := stream(17, 5000)
	seq := NewGrouped(groups)
	for i, x := range samples {
		seq.Add(i%groups, x)
	}
	parts := []*Grouped{NewGrouped(groups), NewGrouped(groups), NewGrouped(groups)}
	for i, x := range samples {
		parts[i%len(parts)].Add(i%groups, x)
	}
	merged := parts[0].Clone()
	merged.Merge(parts[1])
	merged.Merge(parts[2])
	for k := 0; k < groups; k++ {
		if merged.Count(k) != seq.Count(k) {
			t.Fatalf("group %d: count %d != %d", k, merged.Count(k), seq.Count(k))
		}
		if !relClose(merged.Mean(k), seq.Mean(k)) {
			t.Errorf("group %d: mean %v vs sequential %v", k, merged.Mean(k), seq.Mean(k))
		}
	}
	if !relClose(merged.GrandMean(), seq.GrandMean()) {
		t.Errorf("grand mean %v vs sequential %v", merged.GrandMean(), seq.GrandMean())
	}
}

func TestGroupedCloneIsIndependent(t *testing.T) {
	g := NewGrouped(4)
	g.Add(1, 10)
	c := g.Clone()
	c.Add(1, 99)
	c.Add(2, 5)
	if g.Count(1) != 1 || g.Count(2) != 0 {
		t.Errorf("mutating the clone changed the original: counts %d, %d", g.Count(1), g.Count(2))
	}
	if c.Count(1) != 2 {
		t.Errorf("clone did not keep the original's samples")
	}
}

func TestGroupedMergePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging differently sized Grouped did not panic")
		}
	}()
	NewGrouped(4).Merge(NewGrouped(5))
}
