package experiments

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/parexp"
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

// Figure8 reproduces the SMT co-run experiment: the throughput of each
// SPEC-like program running next to a continuous AES enc+dec thread, for
// five cache configurations at 16 KB DM and 32 KB 4-way, normalized to the
// baseline (demand-fetch SA, crypto thread unprotected).
func Figure8(sc Scale) *Table {
	t := &Table{
		Title: "Figure 8: normalized throughput of programs co-running with AES (SMT)",
		Headers: []string{"L1", "benchmark", "baseline", "PLcache+preload",
			"Randomfill+SA", "Newcache", "Randomfill+Newcache"},
	}
	// The crypto trace is compiled once per run and shared read-only.
	crypto := aesEncDecTrace(sc)
	w := rng.Symmetric(32) // bidirectional window of 32 lines (Section VI)
	geoms := []cache.Geometry{
		{SizeBytes: 16 * 1024, Ways: 1},
		{SizeBytes: 32 * 1024, Ways: 4},
	}
	benches := workloads.All()
	// One work item per benchmark: it generates and compiles the benchmark
	// once and runs its five co-runs at every geometry on one machine,
	// which each co-run resets.
	rows := parexp.Map(sc.engine(), len(benches), func(i int) [][5]float64 {
		bench := trace.Compile(benches[i].Gen(sc.SpecAccesses, sc.Seed))
		m := new(sim.Machine)
		out := make([][5]float64, len(geoms))
		for gi, g := range geoms {
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
		return out
	})
	for gi, g := range geoms {
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
}

// Figure9 reproduces the spatial-locality profiles: the reference ratio
// Eff(d) per benchmark for fill offsets d within ±16 lines.
func Figure9(sc Scale) *Table {
	offsets := []int{-16, -8, -4, -2, -1, 1, 2, 4, 8, 16}
	headers := []string{"benchmark"}
	for _, d := range offsets {
		headers = append(headers, fmt.Sprintf("d=%+d", d))
	}
	t := &Table{
		Title:   "Figure 9: reference ratio Eff(d) of randomly filled lines",
		Headers: headers,
	}
	geom := cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}
	benches := workloads.All()
	rows := parexp.Map(sc.engine(), len(benches), func(i int) []string {
		p := workloads.SpatialProfile(benches[i].Gen(sc.SpecAccesses, sc.Seed), geom, 16, sc.Seed)
		row := []string{benches[i].Name}
		for _, d := range offsets {
			row = append(row, fmt.Sprintf("%.2f", p.Eff(d)))
		}
		return row
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("paper: most workloads have locality within ~4 lines; lbm and libquantum show wide forward locality")
	return t
}

// figure10Windows are the fill windows of Figure 10, forward then
// bidirectional.
func figure10Windows() []rng.Window {
	return []rng.Window{
		{A: 0, B: 0},
		{A: 0, B: 1}, {A: 0, B: 3}, {A: 0, B: 7}, {A: 0, B: 15}, {A: 0, B: 31},
		{A: 1, B: 0}, {A: 2, B: 1}, {A: 4, B: 3}, {A: 8, B: 7}, {A: 16, B: 15},
	}
}

// Figure10 reproduces the per-benchmark MPKI and IPC sweep across fill
// windows: window [0,0] is the demand-fetch baseline.
func Figure10(sc Scale) *Table {
	headers := []string{"benchmark", "metric"}
	for _, w := range figure10Windows() {
		headers = append(headers, fmt.Sprintf("[%d,%d]", -w.A, w.B))
	}
	t := &Table{
		Title:   "Figure 10: L1 MPKI and normalized IPC vs random fill window",
		Headers: headers,
	}
	benches := workloads.All()
	// One work item per benchmark: it compiles the benchmark once and runs
	// its full window sweep on one machine, reset per window (the [0,0]
	// column is the in-item baseline, so items stay self-contained).
	rows := parexp.Map(sc.engine(), len(benches), func(bi int) [2][]string {
		bench := benches[bi]
		ct := trace.Compile(bench.Gen(sc.SpecAccesses, sc.Seed))
		m := new(sim.Machine)
		mpkiRow := []string{bench.Name, "MPKI"}
		ipcRow := []string{bench.Name, "IPC"}
		var baseIPC float64
		for i, w := range figure10Windows() {
			cfg := sim.DefaultConfig()
			cfg.Seed = sc.Seed
			tc := sim.ThreadConfig{}
			if !w.Zero() {
				tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
			}
			m.Reset(cfg)
			res := m.RunTraceSteady(tc, ct)
			if i == 0 {
				baseIPC = res.IPC()
			}
			mpkiRow = append(mpkiRow, fmt.Sprintf("%.1f", res.MPKI()))
			ipcRow = append(ipcRow, pct(res.IPC()/baseIPC))
		}
		return [2][]string{mpkiRow, ipcRow}
	})
	for _, pair := range rows {
		t.AddRow(pair[0]...)
		t.AddRow(pair[1]...)
	}
	t.AddNote("paper: larger windows raise MPKI and lower IPC for narrow-locality benchmarks; lbm and libquantum improve (libquantum [0,15]: MPKI -31%%, IPC +57%%)")
	return t
}

// Traffic reproduces the Section VII traffic observation: the L2 and
// memory traffic increase of random fill [0,15] over demand fetch for the
// streaming benchmarks.
func Traffic(sc Scale) *Table {
	t := &Table{
		Title:   "Section VII: traffic increase of random fill [0,15] vs demand fetch",
		Headers: []string{"benchmark", "L2 traffic", "memory traffic"},
	}
	names := []string{"lbm", "libquantum"}
	rows := parexp.Map(sc.engine(), len(names), func(i int) [2]float64 {
		bench, _ := workloads.ByName(names[i])
		ct := trace.Compile(bench.Gen(sc.SpecAccesses, sc.Seed))

		mBase := sim.New(sim.Config{Seed: sc.Seed})
		mBase.RunTraceSteady(sim.ThreadConfig{}, ct)

		mRF := sim.New(sim.Config{Seed: sc.Seed})
		mRF.RunTraceSteady(sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 15},
		}, ct)

		return [2]float64{
			float64(mRF.L2Accesses())/float64(mBase.L2Accesses()) - 1,
			float64(mRF.MemAccesses())/float64(mBase.MemAccesses()) - 1,
		}
	})
	for i, r := range rows {
		t.AddRow(names[i], fmt.Sprintf("%+.1f%%", 100*r[0]), fmt.Sprintf("%+.1f%%", 100*r[1]))
	}
	t.AddNote("paper: L2 traffic +48%%/+56%%, memory traffic +0.03%%/+22%% for lbm/libquantum")
	return t
}

// PrefetchComparison reproduces the Section VII prefetcher comparison: IPC
// of a tagged next-line prefetcher vs random fill [0,15] on the streaming
// benchmarks, normalized to demand fetch.
func PrefetchComparison(sc Scale) *Table {
	t := &Table{
		Title:   "Section VII: tagged prefetcher vs random fill on streaming benchmarks",
		Headers: []string{"benchmark", "baseline", "tagged prefetcher", "random fill [0,15]"},
	}
	names := []string{"lbm", "libquantum"}
	rows := parexp.Map(sc.engine(), len(names), func(i int) [3]float64 {
		bench, _ := workloads.ByName(names[i])
		ct := trace.Compile(bench.Gen(sc.SpecAccesses, sc.Seed))

		base := sim.New(sim.Config{Seed: sc.Seed}).RunTraceSteady(sim.ThreadConfig{}, ct)

		mPf := sim.New(sim.Config{Seed: sc.Seed})
		mPf.Prefetcher = prefetch.NewTagged()
		pf := mPf.RunTraceSteady(sim.ThreadConfig{}, ct)

		rf := sim.New(sim.Config{Seed: sc.Seed}).RunTraceSteady(sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 15},
		}, ct)

		return [3]float64{base.IPC(), pf.IPC(), rf.IPC()}
	})
	for i, r := range rows {
		t.AddRow(names[i], "100.0%", pct(r[1]/r[0]), pct(r[2]/r[0]))
	}
	t.AddNote("paper: tagged prefetcher +11%%/+26%%, random fill +17%%/+57%% for lbm/libquantum")
	return t
}
