package workloads

import (
	"sort"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
)

func TestAllGeneratorsProduceRequestedLength(t *testing.T) {
	for _, g := range All() {
		tr := g.Gen(5000, 1)
		if len(tr) != 5000 {
			t.Errorf("%s: len = %d", g.Name, len(tr))
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range All() {
		a := g.Gen(2000, 42)
		b := g.Gen(2000, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: trace differs at %d with same seed", g.Name, i)
				break
			}
		}
	}
}

func TestGeneratorsSeedSensitive(t *testing.T) {
	for _, g := range All() {
		if g.Name == "milc" || g.Name == "h264ref" {
			continue // purely structural generators ignore the seed
		}
		a := g.Gen(2000, 1)
		b := g.Gen(2000, 2)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: identical traces for different seeds", g.Name)
		}
	}
}

func TestFootprintsDisjoint(t *testing.T) {
	// Benchmarks must not share cache lines with each other (or they
	// would warm each other's data in SMT runs).
	owner := make(map[mem.Line]string)
	for _, g := range All() {
		tr := g.Gen(20000, 3)
		var lines []mem.Line
		for l := range tr.Lines() {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		for _, l := range lines {
			if prev, ok := owner[l]; ok && prev != g.Name {
				t.Fatalf("line %d shared by %s and %s", l, prev, g.Name)
			}
			owner[l] = g.Name
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("lbm"); !ok {
		t.Error("lbm not found")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("unknown benchmark found")
	}
	if len(Names()) != 8 {
		t.Errorf("Names() = %v", Names())
	}
}

func geom32k() cache.Geometry { return cache.Geometry{SizeBytes: 32 * 1024, Ways: 4} }

func TestSpatialProfileBounds(t *testing.T) {
	g, _ := ByName("lbm")
	p := SpatialProfile(g.Compile(40000, 1), geom32k(), 16, 1)
	for _, d := range offsets(p) {
		f := p.Fetched[d]
		if d < -16 || d > 16 {
			t.Errorf("offset %d outside ±16", d)
		}
		if p.Referenced[d] > f {
			t.Errorf("offset %d: referenced %d > fetched %d", d, p.Referenced[d], f)
		}
		if e := p.Eff(d); e < 0 || e > 1 {
			t.Errorf("Eff(%d) = %v", d, e)
		}
	}
	if len(offsets(p)) == 0 {
		t.Fatal("no offsets sampled")
	}
}

func TestSpatialLocalityClasses(t *testing.T) {
	// The Figure 9 property the whole Section VII story rests on: the
	// streaming workloads (lbm, libquantum) have useful locality many
	// lines ahead; pointer-chasing / hashing workloads (astar, sjeng) do
	// not. (hmmer's tiny hot working set makes every nearby fill useful
	// despite almost never missing, and bzip2/h264ref/milc are mixed, so
	// those carry no strict assertion.)
	wide := map[string]bool{"lbm": true, "libquantum": true}
	narrow := map[string]bool{"astar": true, "sjeng": true}
	for _, g := range All() {
		p := SpatialProfile(g.Compile(60000, 1), geom32k(), 16, 1)
		switch {
		case wide[g.Name]:
			if !wideForward(p, 0.5) {
				t.Errorf("%s: expected wide forward locality; Eff(2..8) = %v",
					g.Name, sampleEff(p))
			}
		case narrow[g.Name]:
			if wideForward(p, 0.4) {
				t.Errorf("%s: unexpectedly wide forward locality; Eff(2..8) = %v",
					g.Name, sampleEff(p))
			}
		}
	}
}

// offsets returns the sampled offsets that have data, in ascending order.
func offsets(p Profile) []int {
	var out []int
	for d := range p.Fetched {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// wideForward reports whether the profile shows useful spatial locality
// well beyond the next line in the forward direction: the mean Eff over
// d in [2, 8] compared against a threshold.
func wideForward(p Profile, threshold float64) bool {
	var sum float64
	n := 0
	for d := 2; d <= 8; d++ {
		if p.Fetched[d] > 0 {
			sum += p.Eff(d)
			n++
		}
	}
	return n > 0 && sum/float64(n) >= threshold
}

func sampleEff(p Profile) []float64 {
	out := make([]float64, 0, 7)
	for d := 2; d <= 8; d++ {
		out = append(out, p.Eff(d))
	}
	return out
}

func TestHmmerMostlyHits(t *testing.T) {
	// hmmer's working set fits the cache: after warm-up the miss rate
	// must be tiny under demand fetch.
	g, _ := ByName("hmmer")
	tr := g.Gen(50000, 1)
	c := cache.NewSetAssoc(cache.Geometry{SizeBytes: 128 * 1024, Ways: 4}, cache.LRU{})
	misses := 0
	for _, a := range tr {
		if !c.Lookup(a.Line(), false) {
			misses++
			c.Fill(a.Line(), cache.FillOpts{})
		}
	}
	if rate := float64(misses) / float64(len(tr)); rate > 0.05 {
		t.Errorf("hmmer miss rate %v, want < 0.05", rate)
	}
}

func TestEffZeroWhenUnsampled(t *testing.T) {
	p := Profile{Referenced: map[int]uint64{}, Fetched: map[int]uint64{}}
	if p.Eff(3) != 0 {
		t.Error("Eff of unsampled offset must be 0")
	}
}

func TestBaselineMissRatesLocked(t *testing.T) {
	// Lock each generator's demand-fetch L1 miss-rate band on the
	// default geometry: the Figure 8-10 reproductions depend on these
	// staying in their locality class.
	bands := map[string][2]float64{
		"sjeng":      {0.2, 0.6},   // skewed random probes
		"lbm":        {0.25, 0.45}, // one miss per 3-access line group
		"libquantum": {0.35, 0.65}, // one miss per 2-access line
		"h264ref":    {0.5, 0.8},   // one miss per cluster line
		"astar":      {0.15, 0.5},  // skewed pointer chasing
		"milc":       {0.9, 1.0},   // every site line is cold at L1
		"bzip2":      {0.2, 0.45},  // mixed scan + work buffer
		"hmmer":      {0.0, 0.05},  // L1-resident tables
	}
	for _, g := range All() {
		tr := g.Gen(60000, 1)
		c := cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
		misses := 0
		// Second pass measured (steady state).
		for pass := 0; pass < 2; pass++ {
			misses = 0
			for _, a := range tr {
				if !c.Lookup(a.Line(), false) {
					misses++
					c.Fill(a.Line(), cache.FillOpts{})
				}
			}
		}
		rate := float64(misses) / float64(len(tr))
		band := bands[g.Name]
		if rate < band[0] || rate > band[1] {
			t.Errorf("%s: steady miss rate %.3f outside locked band [%.2f, %.2f]",
				g.Name, rate, band[0], band[1])
		}
	}
}
