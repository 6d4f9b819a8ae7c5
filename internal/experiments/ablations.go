package experiments

import (
	"context"
	"fmt"
	"sync"

	"randfill/internal/infotheory"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// windowShapePlan isolates the window-direction design choice: for the
// security side (P1-P2 on the AES final-round table) the bidirectional
// window is what matters ("randomized table lookups do not favor the
// forward direction", Section V.A); for the streaming performance side the
// forward window wins (Section VII). Unit i < 3 is one shape's
// {P1-P2, libquantum IPC}; the last unit is libquantum's demand-fetch IPC.
func windowShapePlan(sc Scale) unitPlan[[2]float64] {
	shapes := []struct {
		name string
		w    rng.Window
	}{
		{"forward [0,15]", rng.Window{A: 0, B: 15}},
		{"backward [-15,0]", rng.Window{A: 15, B: 0}},
		{"bidirectional [-8,7]", rng.Window{A: 8, B: 7}},
	}
	ct := sync.OnceValue(func() *trace.Compiled {
		bench, _ := workloads.ByName("libquantum")
		return trace.Compile(bench.Gen(sc.SpecAccesses, sc.Seed))
	})
	return unitPlan[[2]float64]{
		n: len(shapes) + 1,
		run: func(_ context.Context, i int) ([2]float64, error) {
			m := sim.Acquire(sim.Config{Seed: sc.Seed})
			defer m.Release()
			if i == len(shapes) {
				return [2]float64{0, m.RunTraceSteady(sim.ThreadConfig{}, ct()).IPC()}, nil
			}
			mc := infotheory.MonteCarloP1P2(infotheory.P1P2Config{
				NewCache: securecache.L1Factory("sa"),
				Window:   shapes[i].w,
				Trials:   sc.MonteCarloTrials / 2,
				Region:   t4Region(),
				Seed:     sc.Seed,
			})
			res := m.RunTraceSteady(sim.ThreadConfig{
				Mode: sim.ModeRandomFill, Window: shapes[i].w,
			}, ct())
			return [2]float64{mc.Diff(), res.IPC()}, nil
		},
		render: func(results [][2]float64) *Table {
			t := &Table{
				Title:   "Ablation: window shape (size 16) — security signal vs streaming speedup",
				Headers: []string{"window", "P1-P2 (AES T4)", "libquantum IPC vs demand"},
			}
			base := results[len(shapes)][1]
			for i, s := range shapes {
				t.AddRow(s.name, fmt.Sprintf("%.3f", results[i][0]), pct(results[i][1]/base))
			}
			t.AddNote("the bidirectional shape gives the best security at equal size (the paper's choice for crypto); only the forward shape buys the streaming speedup")
			return t
		},
	}
}

// fillQueuePlan isolates the random fill queue depth. With the FIFO
// miss-queue arbitration this design uses, the queue drains promptly and
// depth barely matters; under a strict demand-priority arbitration (not
// modelled here) a shallow queue starves fills entirely — see DESIGN.md's
// discussion of the 1-entry security configuration. Unit i < 4 is one
// depth's run; the last unit is the demand-fetch baseline.
func fillQueuePlan(sc Scale) unitPlan[sim.Result] {
	victim := lazyVictim(sc)
	depths := []int{1, 4, 16, 64}
	return unitPlan[sim.Result]{
		n: len(depths) + 1,
		run: func(_ context.Context, i int) (sim.Result, error) {
			cfg, tc := sim.Config{Seed: sc.Seed}, sim.ThreadConfig{}
			if i < len(depths) {
				cfg = sim.DefaultConfig()
				cfg.Seed = sc.Seed
				cfg.MissQueue = 2
				cfg.FillQueueCap = depths[i]
				tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15}}
			}
			m := sim.Acquire(cfg)
			defer m.Release()
			return m.RunTrace(tc, victim()), nil
		},
		render: func(results []sim.Result) *Table {
			t := &Table{
				Title:   "Ablation: random fill queue depth (AES-CBC, window [-16,+15], 2-entry miss queue)",
				Headers: []string{"queue depth", "random fills landed", "IPC vs demand"},
			}
			base := results[len(depths)]
			for i, d := range depths {
				t.AddRow(fmt.Sprintf("%d", d),
					fmt.Sprintf("%d", results[i].RandomFills),
					pct(results[i].IPC()/base.IPC()))
			}
			t.AddNote("fills converge to steady-state table residency regardless of depth under FIFO arbitration; landed-fill counts plateau once the tables are resident")
			return t
		},
	}
}

// missQueueAblationPlan isolates the miss queue (MSHR) size, the knob the
// paper turns between its performance configuration (4 entries) and its
// attacker-favoring security configuration (1 entry). Each size is one
// unit; the "vs 4 entries" column is computed from the collected IPCs
// rather than re-running every configuration.
func missQueueAblationPlan(sc Scale) unitPlan[float64] {
	victim := lazyVictim(sc)
	sizes := []int{1, 2, 4, 8}
	return unitPlan[float64]{
		n: len(sizes),
		run: func(_ context.Context, i int) (float64, error) {
			cfg := sim.DefaultConfig()
			cfg.Seed = sc.Seed
			cfg.MissQueue = sizes[i]
			m := sim.Acquire(cfg)
			defer m.Release()
			return m.RunTrace(sim.ThreadConfig{}, victim()).IPC(), nil
		},
		render: func(ipcs []float64) *Table {
			t := &Table{
				Title:   "Ablation: miss queue entries (AES-CBC, demand fetch)",
				Headers: []string{"entries", "IPC", "vs 4 entries"},
			}
			var base float64
			for i, n := range sizes {
				if n == 4 {
					base = ipcs[i]
				}
			}
			for i, n := range sizes {
				t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", ipcs[i]), pct(ipcs[i]/base))
			}
			t.AddNote("fewer entries serialize misses, which is why the paper's 1-entry security configuration makes timing attacks an order of magnitude cheaper")
			return t
		},
	}
}

// dropOnHitPlan isolates the tag-check drop of redundant random fill
// requests (Section IV.B.2): without it, fills that would hit are issued
// anyway, wasting L2 bandwidth for no security change. A unit is one
// variant's {IPC, L2 accesses}; the last unit is the demand-fetch baseline.
func dropOnHitPlan(sc Scale) unitPlan[[2]float64] {
	victim := lazyVictim(sc)
	keeps := []bool{false, true}
	return unitPlan[[2]float64]{
		n: len(keeps) + 1,
		run: func(_ context.Context, i int) ([2]float64, error) {
			tc := sim.ThreadConfig{}
			if i < len(keeps) {
				tc = sim.ThreadConfig{
					Mode:               sim.ModeRandomFill,
					Window:             rng.Window{A: 16, B: 15},
					KeepRedundantFills: keeps[i],
				}
			}
			m := sim.Acquire(sim.Config{Seed: sc.Seed})
			defer m.Release()
			res := m.RunTrace(tc, victim())
			return [2]float64{res.IPC(), float64(m.L2Accesses())}, nil
		},
		render: func(results [][2]float64) *Table {
			t := &Table{
				Title:   "Ablation: drop-if-present tag check (AES-CBC, window [-16,+15])",
				Headers: []string{"variant", "IPC vs demand", "L2 accesses vs demand"},
			}
			base := results[len(keeps)]
			for i, keep := range keeps {
				name := "with drop (hardware design)"
				if keep {
					name = "without drop (ablated)"
				}
				t.AddRow(name, pct(results[i][0]/base[0]), pct(results[i][1]/base[1]))
			}
			return t
		},
	}
}

// l2RandomFillPlan reproduces the Section VI observation: applying the
// random fill policy at the L2 as well has negligible performance impact,
// because the large L2 tolerates the extra pollution. Unit i < 2 is one
// variant's IPC; the last unit is the demand-fetch baseline.
func l2RandomFillPlan(sc Scale) unitPlan[float64] {
	victim := lazyVictim(sc)
	w := rng.Window{A: 16, B: 15}
	variants := []sim.Config{
		{Seed: sc.Seed},
		{Seed: sc.Seed, Levels: []sim.LevelConfig{{Window: w}}},
	}
	return unitPlan[float64]{
		n: len(variants) + 1,
		run: func(_ context.Context, i int) (float64, error) {
			cfg, tc := sim.Config{Seed: sc.Seed}, sim.ThreadConfig{}
			if i < len(variants) {
				cfg, tc = variants[i], sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
			}
			m := sim.Acquire(cfg)
			defer m.Release()
			return m.RunTrace(tc, victim()).IPC(), nil
		},
		render: func(ipcs []float64) *Table {
			t := &Table{
				Title:   "Ablation: random fill at L1 only vs L1+L2 (AES-CBC, window [-16,+15])",
				Headers: []string{"variant", "IPC vs demand"},
			}
			base := ipcs[len(variants)]
			t.AddRow("L1 random fill", pct(ipcs[0]/base))
			t.AddRow("L1+L2 random fill", pct(ipcs[1]/base))
			t.AddNote("paper Section VI: \"the performance impact is negligible since the L2 cache is large and can better tolerate the potential cache pollution\"")
			return t
		},
	}
}
