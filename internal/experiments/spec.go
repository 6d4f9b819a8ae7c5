package experiments

import (
	"context"
	"fmt"
	"sync"

	"randfill/internal/cache"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// smtRun resets m to the co-run's configuration, co-runs one compiled
// benchmark trace with the continuous AES enc+dec thread, and returns the
// benchmark's IPC.
func smtRun(m *sim.Machine, sc Scale, g cache.Geometry, kind sim.CacheKind, cryptoCfg sim.ThreadConfig, bench, crypto *trace.Compiled) float64 {
	cfg := sim.DefaultConfig()
	cfg.L1 = g
	cfg.L1Kind = kind
	cfg.Seed = sc.Seed
	m.Reset(cfg)
	main := sim.ThreadConfig{Owner: 0}
	res := m.RunSMTSteadyCompiled(main, bench, cryptoCfg, crypto)
	return res.IPC()
}

// figure8Geoms are Figure 8's L1 geometries.
var figure8Geoms = [2]cache.Geometry{
	{SizeBytes: 16 * 1024, Ways: 1},
	{SizeBytes: 32 * 1024, Ways: 4},
}

// figure8Plan reproduces the SMT co-run experiment: the throughput of each
// SPEC-like program running next to a continuous AES enc+dec thread, for
// five cache configurations at 16 KB DM and 32 KB 4-way, normalized to the
// baseline (demand-fetch SA, crypto thread unprotected). A unit is one
// benchmark: it builds the benchmark's packed trace once and runs its five
// co-runs at every geometry on one pooled machine, which each co-run
// resets.
func figure8Plan(sc Scale) unitPlan[[2][5]float64] {
	// The crypto trace is built once per run and shared read-only.
	lazyCrypto := sync.OnceValue(func() *trace.Compiled { return aesEncDecTrace(sc) })
	w := rng.Symmetric(32) // bidirectional window of 32 lines (Section VI)
	benches := workloads.All()
	return unitPlan[[2][5]float64]{
		n: len(benches),
		run: func(_ context.Context, i int) ([2][5]float64, error) {
			// The crypto trace first: no benchmark trace is live while the
			// first unit builds it.
			crypto := lazyCrypto()
			bench := benches[i].Compile(sc.SpecAccesses, sc.Seed)
			m := sim.Acquire(sim.DefaultConfig())
			defer m.Release()
			var out [2][5]float64
			for gi, g := range figure8Geoms {
				base := smtRun(m, sc, g, sim.KindSA, sim.ThreadConfig{Owner: 1}, bench, crypto)
				out[gi] = [5]float64{
					1,
					smtRun(m, sc, g, sim.KindPLcache, sim.ThreadConfig{
						Mode: sim.ModePreload, SecretRegions: allTables(), Owner: 1,
					}, bench, crypto) / base,
					smtRun(m, sc, g, sim.KindSA, sim.ThreadConfig{
						Mode: sim.ModeRandomFill, Window: w, Owner: 1,
					}, bench, crypto) / base,
					smtRun(m, sc, g, sim.KindNewcache, sim.ThreadConfig{Owner: 1}, bench, crypto) / base,
					smtRun(m, sc, g, sim.KindNewcache, sim.ThreadConfig{
						Mode: sim.ModeRandomFill, Window: w, Owner: 1,
					}, bench, crypto) / base,
				}
			}
			return out, nil
		},
		render: func(rows [][2][5]float64) *Table {
			t := &Table{
				Title: "Figure 8: normalized throughput of programs co-running with AES (SMT)",
				Headers: []string{"L1", "benchmark", "baseline", "PLcache+preload",
					"Randomfill+SA", "Newcache", "Randomfill+Newcache"},
			}
			for gi, g := range figure8Geoms {
				var sums [5]float64
				for bi, perGeom := range rows {
					row := []string{g.String(), benches[bi].Name}
					for i, v := range perGeom[gi] {
						sums[i] += v
						row = append(row, pct(v))
					}
					t.AddRow(row...)
				}
				avg := []string{g.String(), "average"}
				for _, s := range sums {
					avg = append(avg, pct(s/float64(len(benches))))
				}
				t.AddRow(avg...)
			}
			t.AddNote("paper: random fill has no impact on co-running programs; PLcache+preload degrades them 32%% on average at 16KB, 1%% at 32KB")
			return t
		},
	}
}

// figure9Offsets are Figure 9's fill offsets d, in lines.
var figure9Offsets = [10]int{-16, -8, -4, -2, -1, 1, 2, 4, 8, 16}

// figure9Plan reproduces the spatial-locality profiles: the reference ratio
// Eff(d) per benchmark for fill offsets d within ±16 lines, one benchmark
// per unit.
func figure9Plan(sc Scale) unitPlan[[10]float64] {
	geom := cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}
	benches := workloads.All()
	return unitPlan[[10]float64]{
		n: len(benches),
		run: func(_ context.Context, i int) ([10]float64, error) {
			p := workloads.SpatialProfile(benches[i].Compile(sc.SpecAccesses, sc.Seed), geom, 16, sc.Seed)
			var eff [10]float64
			for k, d := range figure9Offsets {
				eff[k] = p.Eff(d)
			}
			return eff, nil
		},
		render: func(rows [][10]float64) *Table {
			headers := []string{"benchmark"}
			for _, d := range figure9Offsets {
				headers = append(headers, fmt.Sprintf("d=%+d", d))
			}
			t := &Table{
				Title:   "Figure 9: reference ratio Eff(d) of randomly filled lines",
				Headers: headers,
			}
			for i, eff := range rows {
				row := []string{benches[i].Name}
				for _, e := range eff {
					row = append(row, fmt.Sprintf("%.2f", e))
				}
				t.AddRow(row...)
			}
			t.AddNote("paper: most workloads have locality within ~4 lines; lbm and libquantum show wide forward locality")
			return t
		},
	}
}

// figure10Windows are the fill windows of Figure 10, forward then
// bidirectional.
var figure10Windows = [11]rng.Window{
	{A: 0, B: 0},
	{A: 0, B: 1}, {A: 0, B: 3}, {A: 0, B: 7}, {A: 0, B: 15}, {A: 0, B: 31},
	{A: 1, B: 0}, {A: 2, B: 1}, {A: 4, B: 3}, {A: 8, B: 7}, {A: 16, B: 15},
}

// figure10Plan reproduces the per-benchmark MPKI and IPC sweep across fill
// windows: window [0,0] is the demand-fetch baseline. A unit is one
// benchmark: it builds the benchmark's packed trace once and runs its full
// window sweep on one pooled machine, reset per window, and returns each
// window's MPKI and IPC (the [0,0] column is the in-unit baseline, so
// units stay self-contained).
func figure10Plan(sc Scale) unitPlan[[2][11]float64] {
	benches := workloads.All()
	return unitPlan[[2][11]float64]{
		n: len(benches),
		run: func(_ context.Context, bi int) ([2][11]float64, error) {
			ct := benches[bi].Compile(sc.SpecAccesses, sc.Seed)
			cfg := sim.DefaultConfig()
			cfg.Seed = sc.Seed
			m := sim.Acquire(cfg)
			defer m.Release()
			var out [2][11]float64
			for i, w := range figure10Windows {
				tc := sim.ThreadConfig{}
				if !w.Zero() {
					tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
				}
				m.Reset(cfg)
				res := m.RunTraceSteady(tc, ct)
				out[0][i], out[1][i] = res.MPKI(), res.IPC()
			}
			return out, nil
		},
		render: func(rows [][2][11]float64) *Table {
			headers := []string{"benchmark", "metric"}
			for _, w := range figure10Windows {
				headers = append(headers, fmt.Sprintf("[%d,%d]", -w.A, w.B))
			}
			t := &Table{
				Title:   "Figure 10: L1 MPKI and normalized IPC vs random fill window",
				Headers: headers,
			}
			for bi, r := range rows {
				mpkiRow := []string{benches[bi].Name, "MPKI"}
				ipcRow := []string{benches[bi].Name, "IPC"}
				for i := range figure10Windows {
					mpkiRow = append(mpkiRow, fmt.Sprintf("%.1f", r[0][i]))
					ipcRow = append(ipcRow, pct(r[1][i]/r[1][0]))
				}
				t.AddRow(mpkiRow...)
				t.AddRow(ipcRow...)
			}
			t.AddNote("paper: larger windows raise MPKI and lower IPC for narrow-locality benchmarks; lbm and libquantum improve (libquantum [0,15]: MPKI -31%%, IPC +57%%)")
			return t
		},
	}
}

// streamingBenches are the streaming benchmarks of Section VII's traffic
// and prefetcher comparisons.
var streamingBenches = []string{"lbm", "libquantum"}

// trafficPlan reproduces the Section VII traffic observation: the L2 and
// memory traffic increase of random fill [0,15] over demand fetch for the
// streaming benchmarks, one benchmark per unit, on one pooled machine.
func trafficPlan(sc Scale) unitPlan[[2]float64] {
	return unitPlan[[2]float64]{
		n: len(streamingBenches),
		run: func(_ context.Context, i int) ([2]float64, error) {
			bench, _ := workloads.ByName(streamingBenches[i])
			ct := bench.Compile(sc.SpecAccesses, sc.Seed)

			cfg := sim.Config{Seed: sc.Seed}
			m := sim.Acquire(cfg)
			defer m.Release()
			m.RunTraceSteady(sim.ThreadConfig{}, ct)
			// Read the baseline's counters before the reset clears them.
			baseL2, baseMem := m.L2Accesses(), m.MemAccesses()

			m.Reset(cfg)
			m.RunTraceSteady(sim.ThreadConfig{
				Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 15},
			}, ct)

			return [2]float64{
				float64(m.L2Accesses())/float64(baseL2) - 1,
				float64(m.MemAccesses())/float64(baseMem) - 1,
			}, nil
		},
		render: func(rows [][2]float64) *Table {
			t := &Table{
				Title:   "Section VII: traffic increase of random fill [0,15] vs demand fetch",
				Headers: []string{"benchmark", "L2 traffic", "memory traffic"},
			}
			for i, r := range rows {
				t.AddRow(streamingBenches[i], fmt.Sprintf("%+.1f%%", 100*r[0]), fmt.Sprintf("%+.1f%%", 100*r[1]))
			}
			t.AddNote("paper: L2 traffic +48%%/+56%%, memory traffic +0.03%%/+22%% for lbm/libquantum")
			return t
		},
	}
}

// prefetchPlan reproduces the Section VII prefetcher comparison: IPC of a
// tagged next-line prefetcher vs random fill [0,15] on the streaming
// benchmarks, normalized to demand fetch, one benchmark per unit, on one
// pooled machine.
func prefetchPlan(sc Scale) unitPlan[[3]float64] {
	return unitPlan[[3]float64]{
		n: len(streamingBenches),
		run: func(_ context.Context, i int) ([3]float64, error) {
			bench, _ := workloads.ByName(streamingBenches[i])
			ct := bench.Compile(sc.SpecAccesses, sc.Seed)

			cfg := sim.Config{Seed: sc.Seed}
			m := sim.Acquire(cfg)
			defer m.Release()
			base := m.RunTraceSteady(sim.ThreadConfig{}, ct)

			m.Reset(cfg) // drops the prefetcher too
			m.Prefetcher = prefetch.NewTagged()
			pf := m.RunTraceSteady(sim.ThreadConfig{}, ct)

			m.Reset(cfg)
			rf := m.RunTraceSteady(sim.ThreadConfig{
				Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 15},
			}, ct)

			return [3]float64{base.IPC(), pf.IPC(), rf.IPC()}, nil
		},
		render: func(rows [][3]float64) *Table {
			t := &Table{
				Title:   "Section VII: tagged prefetcher vs random fill on streaming benchmarks",
				Headers: []string{"benchmark", "baseline", "tagged prefetcher", "random fill [0,15]"},
			}
			for i, r := range rows {
				t.AddRow(streamingBenches[i], "100.0%", pct(r[1]/r[0]), pct(r[2]/r[0]))
			}
			t.AddNote("paper: tagged prefetcher +11%%/+26%%, random fill +17%%/+57%% for lbm/libquantum")
			return t
		},
	}
}
