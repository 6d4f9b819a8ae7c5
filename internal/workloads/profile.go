package workloads

import (
	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// Profile holds the spatial-locality sampling of Figure 9: for each fill
// offset d (distance in lines between a randomly filled line and the demand
// miss that triggered it), how many lines were fetched and how many of
// those were referenced before being evicted.
type Profile struct {
	Referenced map[int]uint64
	Fetched    map[int]uint64
}

// Eff returns the reference ratio Eff(d) = N_referenced(d) / N_fetched(d)
// (Equation 9), or 0 if no fills with offset d were observed.
func (p Profile) Eff(d int) float64 {
	f := p.Fetched[d]
	if f == 0 {
		return 0
	}
	return float64(p.Referenced[d]) / float64(f)
}

// SpatialProfile runs the trace through a random-fill cache of the given
// geometry with a symmetric window of ±maxD lines, tagging every fill with
// its offset and accounting referenced-before-evicted ratios per offset —
// the profiling methodology of Section VII / Figure 9. Lines still resident
// at the end of the run are drained into the counts.
func SpatialProfile(ct *trace.Compiled, geom cache.Geometry, maxD int, seed uint64) Profile {
	p := Profile{
		Referenced: make(map[int]uint64),
		Fetched:    make(map[int]uint64),
	}
	c := cache.NewSetAssoc(geom, cache.LRU{})
	c.SetEvictionObserver(func(v cache.Victim) {
		d := int(v.Offset)
		p.Fetched[d]++
		if v.Referenced() {
			p.Referenced[d]++
		}
	})
	eng := core.NewEngine(c, rng.New(seed))
	eng.SetRR(maxD, maxD)
	for i := range ct.Len() {
		a := ct.At(i)
		eng.Access(a.Line(), a.Kind == mem.Write)
	}
	c.DrainValid()
	return p
}
