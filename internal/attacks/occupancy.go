package attacks

import (
	"math"

	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/securecache"
)

// OccupancyResult summarizes a cache-occupancy experiment: how much the
// attacker learns about the victim's working-set size from its own misses.
type OccupancyResult struct {
	// Accuracy is the fraction of held-out rounds in which a maximum-
	// a-posteriori decoder trained on the other rounds recovered the
	// victim's working-set class from the attacker's probe-miss count.
	Accuracy float64
	// MutualInfo is the empirical mutual information in bits between the
	// victim's working-set class and the attacker's probe-miss count.
	MutualInfo float64
	// InputBits is log2(len(VictimSizes)) — the channel input entropy.
	InputBits float64
	// MeanProbeMisses[i] is the mean attacker probe-miss count when the
	// victim runs with working set VictimSizes[i].
	MeanProbeMisses []float64
	// Trials is the total number of prime → victim → probe rounds.
	Trials int
}

// OccupancyConfig configures the occupancy attack. Unlike Flush-Reload this
// channel needs no shared memory and no addresses in common: the attacker
// only counts its own misses, so it works (or fails) purely on how a design
// couples the two parties' capacity use.
type OccupancyConfig struct {
	// NewCache builds the shared cache under attack.
	NewCache func(src *rng.Source) securecache.SecureCache
	// Lines is the number of attacker prime lines (default: the cache's
	// full capacity, the classic whole-cache occupancy probe).
	Lines int
	// VictimSizes are the victim working-set sizes (in lines) forming the
	// channel's input alphabet. At least two distinct sizes are needed for
	// a non-trivial channel.
	VictimSizes []int
	// Trials is the number of rounds per victim size class.
	Trials int
	Seed   uint64
}

// victimPasses is how many sweeps the victim makes over its working set
// per round: the second pass re-touches lines the first pass may have
// self-evicted.
const victimPasses = 2

// victimBase places the victim's working set far from the attacker's prime
// lines so the two parties share no addresses — the occupancy channel must
// work through capacity contention alone.
const victimBase mem.Line = 1 << 20

// Occupancy mounts the attack: the attacker primes the cache with its own
// lines, the victim sweeps a working set of secret size, and the attacker
// re-accesses its prime lines counting misses. Each evicted prime line is
// one bit of the victim's footprint; designs that randomize *placement*
// (scattercache, newcache) still leak it, while designs that *partition*
// (plcache locks, nomo reserved ways) or refuse demand fills (randfill's
// no-fill policy on the victim side still fills neighbors, so it leaks too)
// change the story. The sweep over VictimSizes recovers the response curve.
func Occupancy(cfg OccupancyConfig) OccupancyResult {
	return NewOccupancyProber(cfg).Run()
}

// occRound is one held-out measurement awaiting MAP decoding.
type occRound struct{ s, miss int }

// OccupancyProber is a reusable occupancy-attack instance: the cache and
// every histogram/scratch buffer are allocated once at construction, so each
// Run performs a full prime → victim → probe experiment without allocating
// (pinned by TestOccupancyProberZeroAlloc). The first Run of a fresh prober
// is byte-identical to Occupancy(cfg) — construction performs exactly the
// RNG draws the one-shot function performs before its round loop, and Run
// continues that stream — while later Runs continue drawing from the same
// stream (fresh rounds, same channel).
type OccupancyProber struct {
	cfg    OccupancyConfig
	src    *rng.Source
	c      securecache.SecureCache
	n      int
	k      int
	rounds int

	joint  [][]uint64
	train  [][]uint64
	test   []occRound
	mean   []float64
	rowSum []float64
	colSum []float64
}

// NewOccupancyProber builds the cache under attack and all measurement
// scratch for repeated Runs of the configured experiment.
func NewOccupancyProber(cfg OccupancyConfig) *OccupancyProber {
	src := rng.New(cfg.Seed ^ 0x0cc0)
	c := cfg.NewCache(src.Split(1))

	n := cfg.Lines
	if n <= 0 {
		n = c.NumLines()
	}
	k := len(cfg.VictimSizes)
	p := &OccupancyProber{
		cfg:  cfg,
		src:  src,
		c:    c,
		n:    n,
		k:    k,
		mean: make([]float64, k),
	}
	if k == 0 || cfg.Trials <= 0 {
		return p
	}
	p.rounds = cfg.Trials * k
	// joint[s][miss] counts rounds with victim class s and miss probe
	// misses; misses range over 0..n.
	p.joint = makeHist(k, n+1)
	p.train = makeHist(k, n+1)
	p.test = make([]occRound, 0, (p.rounds+1)/2)
	p.rowSum = make([]float64, k)
	p.colSum = make([]float64, n+1)
	return p
}

// Run executes one full experiment (Trials rounds per victim class) and
// returns its result. The MeanProbeMisses slice is the prober's scratch,
// valid until the next Run; Clone it to keep across Runs.
func (p *OccupancyProber) Run() OccupancyResult {
	if p.k == 0 || p.rounds == 0 {
		return OccupancyResult{MeanProbeMisses: p.mean}
	}
	c, src := p.c, p.src
	zeroHist(p.joint)
	zeroHist(p.train)
	p.test = p.test[:0]

	for r := 0; r < p.rounds; r++ {
		s := src.Intn(p.k)
		w := p.cfg.VictimSizes[s]

		// Fresh round: empty cache, then the attacker primes its lines.
		c.Flush()
		c.SetParty(attackerDomain)
		for i := 0; i < p.n; i++ {
			c.Access(mem.Line(i), false)
		}
		// Victim: sweep a working set of secret size w.
		c.SetParty(victimDomain)
		for pass := 0; pass < victimPasses; pass++ {
			for i := 0; i < w; i++ {
				c.Access(victimBase+mem.Line(i), false)
			}
		}
		// Probe: the attacker re-accesses its own lines and counts
		// misses — no victim addresses involved.
		c.SetParty(attackerDomain)
		miss := 0
		for i := 0; i < p.n; i++ {
			if !c.Access(mem.Line(i), false) {
				miss++
			}
		}

		p.joint[s][miss]++
		if r%2 == 0 {
			p.train[s][miss]++
		} else {
			p.test = append(p.test, occRound{s, miss})
		}
	}

	// Decode held-out rounds with a MAP rule over the training histogram.
	correct := 0
	for _, r := range p.test {
		best, bestCount := 0, uint64(0)
		for s := 0; s < p.k; s++ {
			if p.train[s][r.miss] > bestCount {
				best, bestCount = s, p.train[s][r.miss]
			}
		}
		if best == r.s {
			correct++
		}
	}
	acc := 0.0
	if len(p.test) > 0 {
		acc = float64(correct) / float64(len(p.test))
	}

	for s := range p.joint {
		var sum, cnt float64
		for miss, cn := range p.joint[s] {
			sum += float64(miss) * float64(cn)
			cnt += float64(cn)
		}
		p.mean[s] = 0
		if cnt > 0 {
			p.mean[s] = sum / cnt
		}
	}

	return OccupancyResult{
		Accuracy:        acc,
		MutualInfo:      mutualInfoInto(p.joint, p.rowSum, p.colSum),
		InputBits:       math.Log2(float64(p.k)),
		MeanProbeMisses: p.mean,
		Trials:          p.rounds,
	}
}

// ReuseConfig configures the design-generic reuse (flush + reload) probe.
type ReuseConfig struct {
	// NewCache builds the shared cache under attack.
	NewCache func(src *rng.Source) securecache.SecureCache
	// Region is the shared security-critical table the victim indexes
	// with its secret.
	Region mem.Region
	// Pad extends the attacker's observable range Pad lines beyond the
	// region on both sides, covering fills a windowed design may issue
	// outside the region (the paper's best case for the attacker).
	Pad int
	// Trials is the number of flush → victim-access → reload rounds.
	Trials int
	Seed   uint64
}

// Reuse mounts Flush-Reload through the SecureCache interface, so the same
// probe runs against every registered design: the victim's access follows
// whatever fill policy the design implements (demand fill for the structural
// designs, window fill for randfill). Designs that install the accessed line
// leak it on reload; randfill's no-fill policy decorrelates the reload from
// the secret.
func Reuse(cfg ReuseConfig) FlushReloadResult {
	src := rng.New(cfg.Seed ^ 0x4e5e)
	c := cfg.NewCache(src.Split(1))
	return newReuseLoop(c, c.Access, c.SetParty, src, cfg.Region, cfg.Pad, cfg.Pad, cfg.Trials).run()
}
