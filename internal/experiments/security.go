package experiments

import (
	"context"
	"fmt"
	"math"

	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/infotheory"
	"randfill/internal/mem"
	"randfill/internal/newcache"
	"randfill/internal/parexp"
	"randfill/internal/rng"
	"randfill/internal/sim"
)

// attackerSim is the security-evaluation machine: Table IV with a reduced
// miss queue, the configuration the paper notes favors the attacker (it
// used 1 entry). We use 2 entries — one serializing demand misses plus room
// for a background fill — because in a trace-driven model a single shared
// entry is always re-claimed by the next back-to-back demand miss, starving
// the random fill queue entirely (gem5's instruction stream has pipeline
// gaps that let fills slip in; see DESIGN.md).
func attackerSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.MissQueue = 2
	return cfg
}

// t4Region is the final-round table T4 under the default layout (table id 4).
func t4Region() mem.Region {
	return mem.Region{Base: 0x10000 + 4*1024, Size: 1024}
}

// figure2Plan is Figure2's work-unit plan: the collision attack's
// parexp.Shards measurement shards — attacks.NewShards' fixed plan, one
// Collect per shard — so each checkpoint holds one shard's full
// CollisionStats and the final merge (in shard-index order) is
// byte-identical whether the shards came from this run, a prior one, or
// another process's.
func figure2Plan(sc Scale) unitPlan[*attacks.CollisionStats] {
	cfg := attacks.CollisionConfig{
		Sim:  attackerSim(),
		Seed: sc.Seed,
	}
	counts := parexp.SplitCounts(sc.Figure2Samples, parexp.Shards)
	return unitPlan[*attacks.CollisionStats]{
		exp:  "Figure2",
		n:    parexp.Shards,
		seed: func(i int) uint64 { return attacks.ShardSeed(cfg, i) },
		run: func(_ context.Context, i int) (*attacks.CollisionStats, error) {
			// Each unit builds its own shard attacker: a unit is a pure
			// function of (sc, i) even when another process runs it alone.
			atk := attacks.NewShards(cfg, parexp.Shards)[i]
			atk.Collect(counts[i])
			return atk.Stats(), nil
		},
		marshal: func(s *attacks.CollisionStats) ([]byte, error) { return s.MarshalBinary() },
		unmarshal: func(data []byte) (*attacks.CollisionStats, error) {
			s := &attacks.CollisionStats{}
			if err := s.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			return s, nil
		},
	}
}

// Figure2Ctx reproduces the timing characteristic chart: mean encryption
// time vs c0^c1 over random-plaintext block encryptions against a
// demand-fetch cache, with the minimum at k10_0 ^ k10_1. figure2Plan
// describes its resumable units.
func Figure2Ctx(ctx context.Context, sc Scale) (*Table, error) {
	states, err := runShards(ctx, sc, figure2Plan(sc))
	if err != nil {
		return nil, err
	}
	a := attacks.MergeStats(states)
	chart := a.TimingChart(0)
	truth := a.TrueXor(0)

	minIdx, minVal := 0, math.Inf(1)
	rank := 0
	for k, v := range chart {
		if v < minVal {
			minIdx, minVal = k, v
		}
		if v < chart[truth] {
			rank++
		}
	}

	t := &Table{
		Title:   "Figure 2: timing characteristic chart for c0 XOR c1",
		Headers: []string{"c0^c1", "t_avg - mean (cycles)"},
	}
	// Print a sketch of the chart: every 16th point plus the minimum and
	// the ground truth.
	for k := 0; k < 256; k += 16 {
		t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%+.2f", chart[k]))
	}
	t.AddRow(fmt.Sprintf("%d (min)", minIdx), fmt.Sprintf("%+.2f", minVal))
	t.AddRow(fmt.Sprintf("%d (true k10_0^k10_1)", truth), fmt.Sprintf("%+.2f", chart[truth]))
	t.AddNote("samples: %d; recovered = %v (paper: minimum at the true XOR after 2^17 samples)",
		a.Samples(), minIdx == truth)
	t.AddNote("true value's timing rank: %d of 256 (0 = the minimum)", rank)
	return t, nil
}

// t3cell is one Table III cell's mergeable result — the full Monte Carlo
// counts (not just the P1-P2 ratio) plus the search outcome, so the cell
// checkpoints and restores exactly.
type t3cell struct {
	mc  infotheory.P1P2Result
	res attacks.SearchResult
}

// t3cellSplit is where the P1P2Result encoding ends and the SearchResult's
// begins inside a cell checkpoint payload.
const t3cellSplit = 32

func (c t3cell) MarshalBinary() ([]byte, error) {
	mc, err := c.mc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	res, err := c.res.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append(mc, res...), nil
}

func (c *t3cell) UnmarshalBinary(data []byte) error {
	if len(data) < t3cellSplit {
		return attacks.ErrCorrupt
	}
	if err := c.mc.UnmarshalBinary(data[:t3cellSplit]); err != nil {
		return err
	}
	return c.res.UnmarshalBinary(data[t3cellSplit:])
}

// table3Cell runs one Table III cell: Monte Carlo P1-P2 plus the empirical
// measurements-to-success search under the cap, both sharded on eng.
func table3Cell(ctx context.Context, sc Scale, eng *parexp.Engine, mk func(src *rng.Source) cache.Cache, kind sim.CacheKind, size int) (t3cell, error) {
	mc, err := infotheory.MonteCarloP1P2ShardedCtx(ctx, eng, infotheory.P1P2Config{
		NewCache: mk,
		Window:   rng.Symmetric(size),
		Trials:   sc.MonteCarloTrials,
		Region:   t4Region(),
		Seed:     sc.Seed,
	}, parexp.Shards)
	if err != nil {
		return t3cell{}, err
	}
	cfg := attacks.CollisionConfig{Sim: attackerSim(), Seed: sc.Seed}
	cfg.Sim.L1Kind = kind
	if size > 1 {
		cfg.Victim = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(size)}
	}
	res, err := attacks.MeasurementsToSuccessShardedCtx(ctx, eng, cfg, sc.AttackBatch, sc.AttackMaxSamples, parexp.Shards)
	if err != nil {
		return t3cell{}, err
	}
	return t3cell{mc, res}, nil
}

// table3Bases lists the two random fill base caches Table III compares.
func table3Bases() []struct {
	name string
	kind sim.CacheKind
	mk   func(src *rng.Source) cache.Cache
} {
	return []struct {
		name string
		kind sim.CacheKind
		mk   func(src *rng.Source) cache.Cache
	}{
		{"RandomFill+4-way SA", sim.KindSA, func(src *rng.Source) cache.Cache {
			return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
		}},
		{"RandomFill+Newcache", sim.KindNewcache, func(src *rng.Source) cache.Cache {
			return newcache.New(32*1024, 4, src)
		}},
	}
}

// table3Sizes is Table III's window-size axis.
var table3Sizes = []int{1, 2, 4, 8, 16, 32}

// table3Plan is Table III's work-unit plan. Its unit is one cell — a
// (base cache, window size) pair's Monte Carlo counts plus its
// measurements-to-success search. A cell is the smallest independently
// re-runnable unit: the search stops at the first successful round, and
// that stopping point depends on all of the cell's shards at every round
// boundary, so checkpointing below cell granularity would mean serializing
// mid-stream RNG positions (see DESIGN.md). All cells still run
// concurrently, each itself sharded.
func table3Plan(sc Scale) unitPlan[t3cell] {
	bases := table3Bases()
	sizes := table3Sizes
	eng := sc.engine()
	return unitPlan[t3cell]{
		exp:  "Table3",
		n:    len(bases) * len(sizes),
		seed: func(int) uint64 { return sc.Seed },
		run: func(ctx context.Context, i int) (t3cell, error) {
			base := bases[i/len(sizes)]
			return table3Cell(ctx, sc, eng, base.mk, base.kind, sizes[i%len(sizes)])
		},
		marshal: func(c t3cell) ([]byte, error) { return c.MarshalBinary() },
		unmarshal: func(data []byte) (t3cell, error) {
			var c t3cell
			err := c.UnmarshalBinary(data)
			return c, err
		},
	}
}

// Table3Ctx reproduces Table III: P1-P2 (Monte Carlo) and the number of
// measurements for a successful collision attack, for window sizes 1..32 on
// the random fill cache built over the 4-way SA cache and over Newcache.
// table3Plan describes its resumable units, which restore in (base, size)
// order.
func Table3Ctx(ctx context.Context, sc Scale) (*Table, error) {
	t := &Table{
		Title: "Table III: P1-P2 and measurements for a successful collision attack",
		Headers: []string{"cache", "window", "P1-P2", "measurements", "outcome",
			"Eq.5 estimate"},
	}
	bases := table3Bases()
	sizes := table3Sizes
	cells, err := runShards(ctx, sc, table3Plan(sc))
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		base, size := bases[i/len(sizes)], sizes[i%len(sizes)]
		outcome := fmt.Sprintf("success (%d/15 pairs)", c.res.CorrectPairs)
		meas := fmt.Sprintf("%d", c.res.Measurements)
		if !c.res.Success {
			outcome = fmt.Sprintf("no success after %d (best %d/15)",
				c.res.Measurements, c.res.CorrectPairs)
			meas = "-"
		}
		// Equation 5 with the observed sigma_T, the L1 miss
		// penalty as tmiss-thit, and alpha = 0.99.
		est := infotheory.MeasurementsRequired(c.mc.Diff(), 19, c.res.SigmaT, 0.99)
		estStr := "inf"
		if !math.IsInf(est, 1) {
			estStr = fmt.Sprintf("%.0f", est)
		}
		t.AddRow(base.name, fmt.Sprintf("%d", size),
			fmt.Sprintf("%.3f", c.mc.Diff()), meas, outcome, estStr)
	}
	t.AddNote("paper (SA): P1-P2 = 0.652/0.332/0.127/0.044/0.012/0.006; 65k/1.87M/16.7M measurements, no success >= size 8 after 2^24")
	t.AddNote("paper (Newcache): P1-P2 = 0.576/0.292/0.119/0.045/0.016/0.007; 244k/2.1M, no success >= size 4 after 2^24")
	t.AddNote("search cap: %d samples; Eq.5 column extrapolates with alpha=0.99, tmiss-thit=19 cycles (L2 hit - L1 hit)", sc.AttackMaxSamples)
	return t, nil
}

// Table3Cell runs one Table III cell in isolation — the SA-based random
// fill cache at the given window size — and returns it as a one-row table.
// It exists so benchmarks can time a single cell's sharded pipeline (Monte
// Carlo + measurements-to-success search) across worker counts without
// paying for the other eleven cells.
func Table3Cell(sc Scale, size int) *Table {
	mk := func(src *rng.Source) cache.Cache {
		return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
	}
	c, err := table3Cell(context.Background(), sc, sc.engine(), mk, sim.KindSA, size)
	if err != nil {
		panic(err)
	}
	t := &Table{
		Title:   fmt.Sprintf("Table III cell: RandomFill+4-way SA, window %d", size),
		Headers: []string{"P1-P2", "measurements", "success"},
	}
	t.AddRow(fmt.Sprintf("%.3f", c.mc.Diff()), fmt.Sprintf("%d", c.res.Measurements),
		fmt.Sprintf("%v", c.res.Success))
	return t
}

// Figure5 reproduces the storage-channel capacity chart: normalized
// capacity vs window size normalized to the security-critical region size,
// for M = 8, 16, 64, 128 lines.
func Figure5() *Table {
	t := &Table{
		Title:   "Figure 5: normalized channel capacity vs normalized window size",
		Headers: []string{"window/M", "M=8", "M=16", "M=64", "M=128"},
	}
	ms := []int{8, 16, 64, 128}
	for _, ratio := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		row := []string{fmt.Sprintf("%g", ratio)}
		for _, m := range ms {
			w := rng.Symmetric(int(ratio * float64(m)))
			row = append(row, fmt.Sprintf("%.4f", infotheory.NormalizedCapacity(m, w.A, w.B)))
		}
		t.AddRow(row...)
	}
	t.AddNote("capacity normalized to demand fetch (log2 M bits); paper: >10x reduction at window = 2M, boundary effect smaller for larger M")
	return t
}
