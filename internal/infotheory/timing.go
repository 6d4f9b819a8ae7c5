package infotheory

import (
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/stats"
)

// TimingSignalResult validates the paper's analytical timing-channel model
// (Equations 2-4) against the timing simulator: for a controlled pair of
// security-critical accesses, the measured expected-time difference
// mu2 - mu1 must equal (P1 - P2)(tmiss - thit).
type TimingSignalResult struct {
	// Mu1 and Mu2 are the measured mean execution times under collision
	// and no-collision (cycles).
	Mu1, Mu2 float64
	// P1 and P2 are the measured hit probabilities of the second access
	// under the two conditions.
	P1, P2 float64
	// Predicted is (P1-P2)*(tmiss-thit), the Equation 4 right-hand side.
	Predicted float64
	// Measured is mu2 - mu1, the left-hand side.
	Measured float64
	Trials   int
}

// TimingSignalConfig controls the microbenchmark.
type TimingSignalConfig struct {
	// Window is the victim's random fill window.
	Window rng.Window
	// Region is the security-critical table (M lines).
	Region mem.Region
	// Trials per condition.
	Trials int
	// Gap is the number of filler accesses between the two
	// security-critical accesses, giving an issued random fill time to
	// land.
	Gap  int
	Seed uint64
}

// MeasureTimingSignal runs the two-access microbenchmark of Section V.A on
// the timing simulator: from a clean L1 (warm L2), access x_i, give the
// fill time to land, then access x_j; measure the end-to-end time and
// whether x_j hit. Conditioning on <x_i> = <x_j> vs not yields mu1/mu2 and
// P1/P2 in the same runs, so Equation 4 can be checked without auxiliary
// assumptions.
func MeasureTimingSignal(cfg TimingSignalConfig) TimingSignalResult {
	if cfg.Trials == 0 {
		cfg.Trials = 4000
	}
	if cfg.Gap == 0 {
		cfg.Gap = 40
	}
	src := rng.New(cfg.Seed ^ 0x71417)

	simCfg := sim.DefaultConfig()
	simCfg.MissQueue = 1 // fully serialized: latencies are exposed
	simCfg.Seed = cfg.Seed
	m := sim.Acquire(simCfg)
	defer m.Release()
	tc := sim.ThreadConfig{}
	if !cfg.Window.Zero() {
		tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: cfg.Window}
	}
	th := m.NewThread(tc)

	lines := cfg.Region.Lines()
	filler := mem.Line(0x70000) // hot filler line, outside the region

	// Warm the L2 (and the filler line's L2 entry).
	for _, l := range lines {
		th.Step(mem.Access{Addr: mem.AddrOf(l)})
	}
	th.Step(mem.Access{Addr: mem.AddrOf(filler)})
	th.Drain()

	var mu1, mu2 stats.Running
	var hits1, hits2, n1, n2 float64

	for t := 0; t < 2*cfg.Trials; t++ {
		i := src.Intn(len(lines))
		j := i
		collide := t%2 == 0
		if !collide {
			for j == i {
				j = src.Intn(len(lines))
			}
		}
		m.L1().Flush()
		th.Drain()
		start := th.Cycle()
		th.Step(mem.Access{Addr: mem.AddrOf(lines[i]), Dependent: true, Secret: true})
		for g := 0; g < cfg.Gap; g++ {
			th.Step(mem.Access{Addr: mem.AddrOf(filler), NonMem: 1})
		}
		before := th.Result().Hits
		th.Step(mem.Access{Addr: mem.AddrOf(lines[j]), Dependent: true, Secret: true})
		hit := th.Result().Hits > before
		// End the measurement when x_j's data arrives (a dependent
		// closing access), NOT at a full drain: waiting for background
		// random fills to land would put their latency on the measured
		// path, which a victim's end-to-end time does not include.
		th.Step(mem.Access{Addr: mem.AddrOf(filler), Dependent: true})
		elapsed := th.Cycle() - start

		if collide {
			mu1.Add(elapsed)
			n1++
			if hit {
				hits1++
			}
		} else {
			mu2.Add(elapsed)
			n2++
			if hit {
				hits2++
			}
		}
	}

	res := TimingSignalResult{
		Mu1:    mu1.Mean(),
		Mu2:    mu2.Mean(),
		P1:     hits1 / n1,
		P2:     hits2 / n2,
		Trials: cfg.Trials,
	}
	tmissMinusThit := float64(simCfg.Levels[0].HitLat - sim.L1HitLat)
	res.Predicted = (res.P1 - res.P2) * tmissMinusThit
	res.Measured = res.Mu2 - res.Mu1
	return res
}
