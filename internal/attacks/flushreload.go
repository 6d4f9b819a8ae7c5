package attacks

import (
	"math"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// FlushReloadResult summarizes a Flush-Reload experiment (the storage
// channel of Section V.B).
type FlushReloadResult struct {
	// Accuracy is the fraction of trials in which the victim's accessed
	// line was among the lines the attacker found cached on reload.
	Accuracy float64
	// MutualInfo is the empirical mutual information in bits between the
	// victim's accessed line S and the attacker's observation R (the
	// cached line, or "nothing"), estimated from the joint histogram.
	// It is upper-bounded by infotheory.Capacity for the same window.
	MutualInfo float64
	// Trials is the number of victim accesses measured.
	Trials int
}

// FlushReloadConfig configures the experiment.
type FlushReloadConfig struct {
	// NewCache builds the shared cache.
	NewCache func(src *rng.Source) cache.Cache
	// Window is the victim's random fill window ([0,0] = demand fetch).
	Window rng.Window
	// Region is the shared security-critical table.
	Region mem.Region
	// Trials is the number of flush → victim-access → reload rounds.
	Trials int
	Seed   uint64
}

// FlushReload mounts the attack: the attacker flushes the shared table from
// the cache, lets the victim perform one secret-dependent access, then
// reloads and observes which line become cached. Per the paper's best case
// for the attacker (Section V.B), the attacker can also observe lines just
// outside the region that a random fill window may touch.
func FlushReload(cfg FlushReloadConfig) FlushReloadResult {
	return NewFlushReloadProber(cfg).Run()
}

// FlushReloadProber is a reusable Flush-Reload instance: the cache, fill
// engine and joint histogram are allocated once, so each Run measures a full
// round of trials without allocating (pinned by
// TestFlushReloadProberZeroAlloc). The first Run of a fresh prober is
// byte-identical to FlushReload(cfg); later Runs continue the prober's RNG
// stream with fresh trials over the same channel.
type FlushReloadProber struct{ loop *reuseLoop }

// NewFlushReloadProber builds the shared cache, the victim's fill engine and
// the measurement scratch for repeated Runs. The attacker observes the
// region extended by the window on both sides; the engine always fills as
// the victim.
func NewFlushReloadProber(cfg FlushReloadConfig) *FlushReloadProber {
	src := rng.New(cfg.Seed ^ 0xf1e5)
	c := cfg.NewCache(src.Split(1))
	eng := core.NewEngine(c, src.Split(2))
	eng.SetOwner(victimDomain)
	eng.SetRR(cfg.Window.A, cfg.Window.B)
	setDomain := func(id int) { asDomain(c, id) }
	return &FlushReloadProber{newReuseLoop(c, eng.Access, setDomain, src, cfg.Region, cfg.Window.A, cfg.Window.B, cfg.Trials)}
}

// Run executes one full experiment (Trials flush → access → reload rounds)
// and returns its result.
func (p *FlushReloadProber) Run() FlushReloadResult { return p.loop.run() }

// reuseLoop is the flush → victim-access → reload measurement FlushReload
// and Reuse share, with its histogram scratch allocated once.
type reuseLoop struct {
	c        cache.Cache
	access   func(l mem.Line, write bool) bool
	setParty func(id int)
	src      *rng.Source
	first    mem.Line
	m        int
	trials   int
	obsLo    int64
	obsHi    int64

	joint  [][]uint64
	rowSum []float64
	colSum []float64
}

// newReuseLoop measures trials rounds in which the attacker flushes and
// probes c over region widened by padA lines below and padB above, and the
// victim makes one access through access, its secret drawn from src.
// setParty selects the party (trust domain) of the operations that follow.
func newReuseLoop(c cache.Cache, access func(mem.Line, bool) bool, setParty func(int), src *rng.Source,
	region mem.Region, padA, padB, trials int) *reuseLoop {
	m := region.NumLines()
	first := region.FirstLine()
	obsLo := max(int64(first)-int64(padA), 0)
	obsHi := int64(first) + int64(m-1) + int64(padB)
	// The observable lines, plus the "nothing cached" symbol.
	obsCount := int(obsHi-obsLo+1) + 1
	return &reuseLoop{
		c: c, access: access, setParty: setParty, src: src,
		first: first, m: m, trials: trials, obsLo: obsLo, obsHi: obsHi,
		joint:  makeHist(m, obsCount),
		rowSum: make([]float64, m),
		colSum: make([]float64, obsCount),
	}
}

// run performs the trials and returns their result.
func (p *reuseLoop) run() FlushReloadResult {
	zeroHist(p.joint)
	obsNone := len(p.colSum) - 1
	hits := 0
	for trial := 0; trial < p.trials; trial++ {
		// Flush: evict the whole observable range (clflush loop).
		p.setParty(attackerDomain)
		for l := p.obsLo; l <= p.obsHi; l++ {
			p.c.Invalidate(mem.Line(l))
		}
		// Victim: one uniform secret-dependent access under its fill
		// policy. (The data is shared, so under a domain-aware cache the
		// victim still sees its own mapping.)
		p.setParty(victimDomain)
		s := p.src.Intn(p.m)
		p.access(p.first+mem.Line(s), false)
		// Reload: time each observable line; a fast reload means the
		// line is cached (Probe models the timing distinguisher without
		// disturbing state).
		obs := obsNone
		victimObserved := false
		for l := p.obsLo; l <= p.obsHi; l++ {
			if p.c.Probe(mem.Line(l)) {
				obs = int(l - p.obsLo)
				if mem.Line(l) == p.first+mem.Line(s) {
					victimObserved = true
				}
			}
		}
		if victimObserved {
			hits++
		}
		p.joint[s][obs]++
	}

	return FlushReloadResult{
		Accuracy:   float64(hits) / float64(p.trials),
		MutualInfo: mutualInfoInto(p.joint, p.rowSum, p.colSum),
		Trials:     p.trials,
	}
}

// makeHist allocates a rows × cols count histogram over one backing array.
func makeHist(rows, cols int) [][]uint64 {
	back := make([]uint64, rows*cols)
	out := make([][]uint64, rows)
	for i := range out {
		out[i] = back[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// zeroHist clears a histogram in place for reuse.
func zeroHist(h [][]uint64) {
	for i := range h {
		clear(h[i])
	}
}

// mutualInfoInto computes I(S;R) in bits from a joint count histogram,
// with caller-provided marginal scratch (len rows and len cols
// respectively), so repeated measurements can reuse one pair of buffers.
func mutualInfoInto(joint [][]uint64, rowSum, colSum []float64) float64 {
	if len(joint) == 0 {
		return 0
	}
	var total float64
	clear(rowSum)
	clear(colSum)
	for i := range joint {
		for j, n := range joint[i] {
			rowSum[i] += float64(n)
			colSum[j] += float64(n)
			total += float64(n)
		}
	}
	if total == 0 {
		return 0
	}
	var mi float64
	for i := range joint {
		for j, n := range joint[i] {
			if n == 0 {
				continue
			}
			p := float64(n) / total
			mi += p * math.Log2(p*total*total/(rowSum[i]*colSum[j]))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}
