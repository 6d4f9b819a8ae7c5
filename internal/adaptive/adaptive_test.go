package adaptive

import (
	"testing"

	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/workloads"
)

// phasedTrace alternates a streaming phase (libquantum-like, wants a wide
// forward window) with a pointer-chasing phase (sjeng-like, wants demand
// fetch), n accesses each, `phases` times.
func phasedTrace(n, phases int) mem.Trace {
	lq, _ := workloads.ByName("libquantum")
	sj, _ := workloads.ByName("sjeng")
	var out mem.Trace
	for p := 0; p < phases; p++ {
		out = append(out, lq.Gen(n, uint64(p+1))...)
		out = append(out, sj.Gen(n, uint64(p+1))...)
	}
	return out
}

func newThread() (*sim.Machine, *sim.Thread) {
	m := sim.New(sim.Config{Seed: 1})
	// The thread starts in random fill mode with a placeholder window;
	// the controller reprograms it immediately.
	th := m.NewThread(sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 1}})
	return m, th
}

func TestDefaultsApplied(t *testing.T) {
	_, th := newThread()
	c := New(th, Config{})
	if len(c.cfg.Candidates) != 4 || c.cfg.Epoch != 20000 || c.cfg.ExploitEpochs != 8 {
		t.Fatalf("defaults wrong: %+v", c.cfg)
	}
	if !c.Exploring() {
		t.Fatal("controller must start exploring")
	}
}

func TestSecurityFloorFiltersCandidates(t *testing.T) {
	_, th := newThread()
	c := New(th, Config{MinSize: 16})
	for _, w := range c.cfg.Candidates {
		if w.Size() < 16 {
			t.Fatalf("candidate %v below the security floor", w)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty candidate set did not panic")
			}
		}()
		_, th2 := newThread()
		New(th2, Config{MinSize: 1024})
	}()
}

func TestExplorationCyclesThroughCandidates(t *testing.T) {
	_, th := newThread()
	c := New(th, Config{Epoch: 100, ExploitEpochs: 2})
	seen := map[rng.Window]bool{}
	tr := phasedTrace(2000, 1)
	for i := 0; i < len(tr) && i < 100*len(c.cfg.Candidates)+50; i++ {
		seen[c.Window()] = true
		c.Step(tr[i])
	}
	if len(seen) != len(c.cfg.Candidates) {
		t.Errorf("exploration visited %d of %d candidates", len(seen), len(c.cfg.Candidates))
	}
}

func TestSwitchCountAdvances(t *testing.T) {
	_, th := newThread()
	c := New(th, Config{Epoch: 100, ExploitEpochs: 1})
	c.Run(phasedTrace(3000, 1))
	if c.Switches < 2*len(c.cfg.Candidates) {
		t.Errorf("only %d window switches across re-explorations", c.Switches)
	}
}

func TestAdaptiveBeatsWorstStaticOnPhasedWorkload(t *testing.T) {
	// The headline property (the paper's future-work hypothesis): on a
	// workload with alternating phases, the adaptive controller's IPC is
	// (a) at least close to the better static choice and (b) clearly
	// better than the worse static choice.
	const n = 40000
	trace := phasedTrace(n, 2)

	static := func(w rng.Window) float64 {
		m := sim.New(sim.Config{Seed: 1})
		tc := sim.ThreadConfig{}
		if !w.Zero() {
			tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
		}
		return m.RunTrace(tc, trace).IPC()
	}
	demand := static(rng.Window{})
	fwd := static(rng.Window{A: 0, B: 15})

	_, th := newThread()
	c := New(th, Config{Epoch: 5000, ExploitEpochs: 4})
	adaptiveIPC := c.Run(trace).IPC()

	worst, best := demand, fwd
	if worst > best {
		worst, best = best, worst
	}
	if adaptiveIPC < worst {
		t.Errorf("adaptive IPC %.3f below the worst static (%.3f)", adaptiveIPC, worst)
	}
	// Exploration overhead is bounded: within 15%% of the best static.
	if adaptiveIPC < 0.85*best {
		t.Errorf("adaptive IPC %.3f far below the best static (%.3f)", adaptiveIPC, best)
	}
	if c.Switches == 0 {
		t.Error("controller never adapted")
	}
}

func TestAdaptiveTracksPhase(t *testing.T) {
	// During a long streaming phase the controller should settle on a
	// non-demand window; during a long pointer phase, on demand fetch.
	lq, _ := workloads.ByName("libquantum")
	sj, _ := workloads.ByName("sjeng")

	settle := func(tr mem.Trace) rng.Window {
		_, th := newThread()
		// Several explore/exploit rounds so the decisive rounds run in
		// the steady state (the L2 keeps warming for the first rounds).
		c := New(th, Config{Epoch: 8000, ExploitEpochs: 3})
		for i := range tr {
			c.Step(tr[i])
		}
		if c.winner < 0 {
			t.Fatal("no exploration round completed")
		}
		return c.cfg.Candidates[c.winner]
	}
	if w := settle(lq.Gen(250000, 1)); w.Zero() {
		t.Errorf("streaming phase settled on %v, want a real window", w)
	}
	if w := settle(sj.Gen(250000, 1)); w.Size() > 8 {
		t.Errorf("pointer-chasing phase settled on %v, want a small window", w)
	}
}
