package experiments

import (
	"fmt"

	"randfill/internal/infotheory"
	"randfill/internal/parexp"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// AblationWindowShape isolates the window-direction design choice: for the
// security side (P1-P2 on the AES final-round table) the bidirectional
// window is what matters ("randomized table lookups do not favor the
// forward direction", Section V.A); for the streaming performance side the
// forward window wins (Section VII).
func AblationWindowShape(sc Scale) *Table {
	t := &Table{
		Title:   "Ablation: window shape (size 16) — security signal vs streaming speedup",
		Headers: []string{"window", "P1-P2 (AES T4)", "libquantum IPC vs demand"},
	}
	shapes := []struct {
		name string
		w    rng.Window
	}{
		{"forward [0,15]", rng.Window{A: 0, B: 15}},
		{"backward [-15,0]", rng.Window{A: 15, B: 0}},
		{"bidirectional [-8,7]", rng.Window{A: 8, B: 7}},
	}
	bench, _ := workloads.ByName("libquantum")
	ct := trace.Compile(bench.Gen(sc.SpecAccesses, sc.Seed))
	base := sim.New(sim.Config{Seed: sc.Seed}).RunTraceSteady(sim.ThreadConfig{}, ct)

	type shapeResult struct {
		diff float64
		ipc  float64
	}
	results := parexp.Map(sc.engine(), len(shapes), func(i int) shapeResult {
		mc := infotheory.MonteCarloP1P2(infotheory.P1P2Config{
			NewCache: securecache.L1Factory("sa"),
			Window:   shapes[i].w,
			Trials:   sc.MonteCarloTrials / 2,
			Region:   t4Region(),
			Seed:     sc.Seed,
		})
		res := sim.New(sim.Config{Seed: sc.Seed}).RunTraceSteady(sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: shapes[i].w,
		}, ct)
		return shapeResult{mc.Diff(), res.IPC()}
	})
	for i, r := range results {
		t.AddRow(shapes[i].name, fmt.Sprintf("%.3f", r.diff), pct(r.ipc/base.IPC()))
	}
	t.AddNote("the bidirectional shape gives the best security at equal size (the paper's choice for crypto); only the forward shape buys the streaming speedup")
	return t
}

// AblationFillQueue isolates the random fill queue depth. With the FIFO
// miss-queue arbitration this design uses, the queue drains promptly and
// depth barely matters; under a strict demand-priority arbitration (not
// modelled here) a shallow queue starves fills entirely — see DESIGN.md's
// discussion of the 1-entry security configuration.
func AblationFillQueue(sc Scale) *Table {
	t := &Table{
		Title:   "Ablation: random fill queue depth (AES-CBC, window [-16,+15], 2-entry miss queue)",
		Headers: []string{"queue depth", "random fills landed", "IPC vs demand"},
	}
	victim := aesCBCTrace(sc)
	base := sim.New(sim.Config{Seed: sc.Seed}).RunTrace(sim.ThreadConfig{}, victim)
	depths := []int{1, 4, 16, 64}
	results := parexp.Map(sc.engine(), len(depths), func(i int) sim.Result {
		cfg := sim.DefaultConfig()
		cfg.Seed = sc.Seed
		cfg.MissQueue = 2
		cfg.FillQueueCap = depths[i]
		return sim.New(cfg).RunTrace(sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15},
		}, victim)
	})
	for i, res := range results {
		t.AddRow(fmt.Sprintf("%d", depths[i]),
			fmt.Sprintf("%d", res.RandomFills),
			pct(res.IPC()/base.IPC()))
	}
	t.AddNote("fills converge to steady-state table residency regardless of depth under FIFO arbitration; landed-fill counts plateau once the tables are resident")
	return t
}

// AblationMissQueue isolates the miss queue (MSHR) size, the knob the paper
// turns between its performance configuration (4 entries) and its
// attacker-favoring security configuration (1 entry).
func AblationMissQueue(sc Scale) *Table {
	t := &Table{
		Title:   "Ablation: miss queue entries (AES-CBC, demand fetch)",
		Headers: []string{"entries", "IPC", "vs 4 entries"},
	}
	victim := aesCBCTrace(sc)
	sizes := []int{1, 2, 4, 8}
	// Each size is simulated once; the "vs 4 entries" column is computed
	// from the collected IPCs rather than re-running every configuration.
	ipcs := parexp.Map(sc.engine(), len(sizes), func(i int) float64 {
		cfg := sim.DefaultConfig()
		cfg.Seed = sc.Seed
		cfg.MissQueue = sizes[i]
		return sim.New(cfg).RunTrace(sim.ThreadConfig{}, victim).IPC()
	})
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
}

// AblationDropOnHit isolates the tag-check drop of redundant random fill
// requests (Section IV.B.2): without it, fills that would hit are issued
// anyway, wasting L2 bandwidth for no security change.
func AblationDropOnHit(sc Scale) *Table {
	t := &Table{
		Title:   "Ablation: drop-if-present tag check (AES-CBC, window [-16,+15])",
		Headers: []string{"variant", "IPC vs demand", "L2 accesses vs demand"},
	}
	victim := aesCBCTrace(sc)
	mBase := sim.New(sim.Config{Seed: sc.Seed})
	base := mBase.RunTrace(sim.ThreadConfig{}, victim)

	keeps := []bool{false, true}
	type dropResult struct {
		ipc float64
		l2  uint64
	}
	results := parexp.Map(sc.engine(), len(keeps), func(i int) dropResult {
		m := sim.New(sim.Config{Seed: sc.Seed})
		res := m.RunTrace(sim.ThreadConfig{
			Mode:               sim.ModeRandomFill,
			Window:             rng.Window{A: 16, B: 15},
			KeepRedundantFills: keeps[i],
		}, victim)
		return dropResult{res.IPC(), m.L2Accesses()}
	})
	for i, r := range results {
		name := "with drop (hardware design)"
		if keeps[i] {
			name = "without drop (ablated)"
		}
		t.AddRow(name, pct(r.ipc/base.IPC()),
			pct(float64(r.l2)/float64(mBase.L2Accesses())))
	}
	return t
}

// AblationL2RandomFill reproduces the Section VI observation: applying the
// random fill policy at the L2 as well has negligible performance impact,
// because the large L2 tolerates the extra pollution.
func AblationL2RandomFill(sc Scale) *Table {
	t := &Table{
		Title:   "Ablation: random fill at L1 only vs L1+L2 (AES-CBC, window [-16,+15])",
		Headers: []string{"variant", "IPC vs demand"},
	}
	victim := aesCBCTrace(sc)
	base := sim.New(sim.Config{Seed: sc.Seed}).RunTrace(sim.ThreadConfig{}, victim)
	w := rng.Window{A: 16, B: 15}

	variants := []sim.Config{
		{Seed: sc.Seed},
		{Seed: sc.Seed, Levels: []sim.LevelConfig{{Window: w}}},
	}
	ipcs := parexp.Map(sc.engine(), len(variants), func(i int) float64 {
		return sim.New(variants[i]).RunTrace(sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: w,
		}, victim).IPC()
	})

	t.AddRow("L1 random fill", pct(ipcs[0]/base.IPC()))
	t.AddRow("L1+L2 random fill", pct(ipcs[1]/base.IPC()))
	t.AddNote("paper Section VI: \"the performance impact is negligible since the L2 cache is large and can better tolerate the potential cache pollution\"")
	return t
}
