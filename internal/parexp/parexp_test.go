package parexp

import (
	"reflect"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		e := New(workers)
		const n = 1000
		var counts [n]atomic.Int64
		e.ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestMapReturnsIndexOrderedResults(t *testing.T) {
	e := New(8)
	got := Map(e, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapIsWorkerCountInvariant(t *testing.T) {
	// The engine's core guarantee on a computation with per-shard streams:
	// identical output for any worker count.
	run := func(workers int) []uint64 {
		e := New(workers)
		seeds := ShardSeeds(42, 16)
		return Map(e, 16, func(i int) uint64 {
			// Simulate a shard that consumes its own derived stream.
			s := seeds[i]
			var acc uint64
			for k := 0; k < 100; k++ {
				s = s*6364136223846793005 + 1442695040888963407
				acc ^= s
			}
			return acc
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 8, 13} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d changed the result", w)
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if w := New(0).workers; w < 1 {
		t.Fatalf("New(0) workers = %d", w)
	}
	if w := New(-3).workers; w < 1 {
		t.Fatalf("New(-3) workers = %d", w)
	}
	if w := New(5).workers; w != 5 {
		t.Fatalf("New(5) workers = %d", w)
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	e := New(4)
	ran := false
	e.ForEach(0, func(int) { ran = true })
	e.ForEach(-5, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty range")
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	New(4).ForEach(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestShardSeedsDeterministicAndDistinct(t *testing.T) {
	a := ShardSeeds(7, 16)
	b := ShardSeeds(7, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ShardSeeds not deterministic")
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate shard seed %#x", s)
		}
		seen[s] = true
	}
	if reflect.DeepEqual(a, ShardSeeds(8, 16)) {
		t.Fatal("different root seeds produced identical shard seeds")
	}
}

func TestSplitCounts(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{8, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{3, 8, []int{1, 1, 1, 0, 0, 0, 0, 0}},
		{0, 3, []int{0, 0, 0}},
		{5, 1, []int{5}},
	}
	for _, c := range cases {
		got := SplitCounts(c.total, c.n)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitCounts(%d, %d) = %v, want %v", c.total, c.n, got, c.want)
		}
		sum := 0
		for _, v := range got {
			sum += v
		}
		if sum != c.total {
			t.Errorf("SplitCounts(%d, %d) sums to %d", c.total, c.n, sum)
		}
	}
}
