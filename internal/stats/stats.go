// Package stats provides the small statistical toolkit the experiments need:
// streaming mean/variance, histograms keyed by small integers, and a helper
// for locating timing-chart minima (Figure 2).
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a stream of float64 samples and reports mean, variance
// and standard deviation using Welford's algorithm (numerically stable for
// the long timing series the attacks collect).
type Running struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples seen.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance (0 if fewer than 2 samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Merge folds other into r, as if all of other's samples had been Added.
// Merging is commutative and associative up to floating-point rounding:
// merge-of-shards equals sequential Add only to within a relative tolerance
// (~1e-9 for the sample counts used here), because Welford updates and the
// pairwise merge formula round differently. Anything that must be
// byte-reproducible therefore fixes the merge ORDER (shard 0, 1, 2, ...),
// which makes the result exact for a given shard plan.
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	mean := r.mean + d*float64(other.n)/float64(n)
	m2 := r.m2 + other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	r.n, r.mean, r.m2 = n, mean, m2
}

// Grouped accumulates samples grouped by a small integer key (e.g. the XORed
// ciphertext byte value in Figure 2's timing characteristic chart).
type Grouped struct {
	groups []Running
}

// NewGrouped returns a Grouped with n groups, keyed 0..n-1.
func NewGrouped(n int) *Grouped { return &Grouped{groups: make([]Running, n)} }

// Add adds sample x to group k.
func (g *Grouped) Add(k int, x float64) { g.groups[k].Add(x) }

// Merge folds other into g group by group, as if every sample of other had
// been Added to g. It panics if the group counts differ (merging two
// accumulators keyed by different alphabets is a bug, not data).
func (g *Grouped) Merge(other *Grouped) {
	if len(g.groups) != len(other.groups) {
		panic(fmt.Sprintf("stats: merging Grouped with %d groups into %d groups",
			len(other.groups), len(g.groups)))
	}
	for k := range g.groups {
		g.groups[k].Merge(other.groups[k])
	}
}

// Clone returns an independent deep copy of g. Shard merges use this to
// build an aggregate without disturbing the per-shard accumulators.
func (g *Grouped) Clone() *Grouped {
	return &Grouped{groups: append([]Running(nil), g.groups...)}
}

// Len returns the number of groups.
func (g *Grouped) Len() int { return len(g.groups) }

// Mean returns the mean of group k.
func (g *Grouped) Mean(k int) float64 { return g.groups[k].Mean() }

// Count returns the sample count of group k.
func (g *Grouped) Count(k int) uint64 { return g.groups[k].N() }

// GrandMean returns the mean over all samples in all groups.
func (g *Grouped) GrandMean() float64 {
	var all Running
	for _, grp := range g.groups {
		all.Merge(grp)
	}
	return all.Mean()
}

// ArgMin returns the key whose group mean is smallest, ignoring empty
// groups. The collision attacks use this to read the secret off the timing
// characteristic chart. Returns -1 if every group is empty.
func (g *Grouped) ArgMin() int {
	best, bestMean := -1, math.Inf(1)
	for k := range g.groups {
		if g.groups[k].N() == 0 {
			continue
		}
		if m := g.groups[k].Mean(); m < bestMean {
			best, bestMean = k, m
		}
	}
	return best
}
