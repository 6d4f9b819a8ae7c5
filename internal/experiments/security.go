package experiments

import (
	"context"
	"fmt"
	"math"

	"randfill/internal/attacks"
	"randfill/internal/infotheory"
	"randfill/internal/mem"
	"randfill/internal/parexp"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
)

// t4Region is the final-round table T4 under the default layout (table id 4).
func t4Region() mem.Region {
	return mem.Region{Base: 0x10000 + 4*1024, Size: 1024}
}

// figure2Plan reproduces the timing characteristic chart: mean encryption
// time vs c0^c1 over random-plaintext block encryptions against a
// demand-fetch cache, with the minimum at k10_0 ^ k10_1. Its units are the
// collision attack's parexp.Shards measurement shards — attacks.NewShards'
// fixed plan, one NewShard and Collect per unit — so each checkpoint holds
// one shard's full CollisionStats and the final merge (in shard-index
// order) is byte-identical whether the shards came from this run, a prior
// one, or another process's.
func figure2Plan(sc Scale) unitPlan[attacks.CollisionStats] {
	cfg := attacks.CollisionConfig{
		Sim:  sim.AttackerConfig(),
		Seed: sc.Seed,
	}
	counts := parexp.SplitCounts(sc.Figure2Samples, parexp.Shards)
	return unitPlan[attacks.CollisionStats]{
		n:    parexp.Shards,
		seed: func(i int) uint64 { return attacks.ShardSeed(cfg, i) },
		run: func(_ context.Context, i int) (attacks.CollisionStats, error) {
			// Each unit builds only its own shard attacker: a unit is a
			// pure function of (sc, i) even when another process runs it
			// alone.
			atk := attacks.NewShard(cfg, i)
			defer atk.Release()
			atk.Collect(counts[i])
			return *atk.Stats(), nil
		},
		render: func(states []attacks.CollisionStats) *Table {
			shards := make([]*attacks.CollisionStats, len(states))
			for i := range states {
				shards[i] = &states[i]
			}
			a := attacks.MergeStats(shards)
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
			// Print a sketch of the chart: every 16th point plus the
			// minimum and the ground truth.
			for k := 0; k < 256; k += 16 {
				t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%+.2f", chart[k]))
			}
			t.AddRow(fmt.Sprintf("%d (min)", minIdx), fmt.Sprintf("%+.2f", minVal))
			t.AddRow(fmt.Sprintf("%d (true k10_0^k10_1)", truth), fmt.Sprintf("%+.2f", chart[truth]))
			t.AddNote("samples: %d; recovered = %v (paper: minimum at the true XOR after 2^17 samples)",
				a.Samples(), minIdx == truth)
			t.AddNote("true value's timing rank: %d of 256 (0 = the minimum)", rank)
			return t
		},
	}
}

// t3cell is one Table III cell's result — the full Monte Carlo counts (not
// just the P1-P2 ratio) plus the search outcome.
type t3cell struct {
	MC  infotheory.P1P2Result
	Res attacks.SearchResult
}

// table3Cell runs one Table III cell, the random fill cache over an L1 of
// the given kind: Monte Carlo P1-P2 plus the empirical measurements-to-
// success search under the cap, both sharded on eng.
func table3Cell(ctx context.Context, sc Scale, eng *parexp.Engine, kind sim.CacheKind, size int) (t3cell, error) {
	mc, err := infotheory.MonteCarloP1P2ShardedCtx(ctx, eng, infotheory.P1P2Config{
		NewCache: securecache.L1Factory(string(kind)),
		Window:   rng.Symmetric(size),
		Trials:   sc.MonteCarloTrials,
		Region:   t4Region(),
		Seed:     sc.Seed,
	}, parexp.Shards)
	if err != nil {
		return t3cell{}, err
	}
	cfg := attacks.CollisionConfig{Sim: sim.AttackerConfig(), Seed: sc.Seed}
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
} {
	return []struct {
		name string
		kind sim.CacheKind
	}{
		{"RandomFill+4-way SA", sim.KindSA},
		{"RandomFill+Newcache", sim.KindNewcache},
	}
}

// table3Sizes is Table III's window-size axis.
var table3Sizes = []int{1, 2, 4, 8, 16, 32}

// table3Plan reproduces Table III: P1-P2 (Monte Carlo) and the number of
// measurements for a successful collision attack, for window sizes 1..32 on
// the random fill cache built over the 4-way SA cache and over Newcache.
// Its unit is one cell — a (base cache, window size) pair's Monte Carlo
// counts plus its measurements-to-success search, in (base, size) order. A
// cell is the smallest independently re-runnable unit: the search stops at
// the first successful round, and that stopping point depends on all of the
// cell's shards at every round boundary, so checkpointing below cell
// granularity would mean serializing mid-stream RNG positions (see
// DESIGN.md). All cells still run concurrently, each itself sharded.
func table3Plan(sc Scale) unitPlan[t3cell] {
	bases := table3Bases()
	sizes := table3Sizes
	eng := sc.engine()
	return unitPlan[t3cell]{
		n: len(bases) * len(sizes),
		run: func(ctx context.Context, i int) (t3cell, error) {
			return table3Cell(ctx, sc, eng, bases[i/len(sizes)].kind, sizes[i%len(sizes)])
		},
		render: func(cells []t3cell) *Table {
			t := &Table{
				Title: "Table III: P1-P2 and measurements for a successful collision attack",
				Headers: []string{"cache", "window", "P1-P2", "measurements", "outcome",
					"Eq.5 estimate"},
			}
			for i, c := range cells {
				base, size := bases[i/len(sizes)], sizes[i%len(sizes)]
				outcome := fmt.Sprintf("success (%d/15 pairs)", c.Res.CorrectPairs)
				meas := fmt.Sprintf("%d", c.Res.Measurements)
				if !c.Res.Success {
					outcome = fmt.Sprintf("no success after %d (best %d/15)",
						c.Res.Measurements, c.Res.CorrectPairs)
					meas = "-"
				}
				// Equation 5 with the observed sigma_T, the L1 miss
				// penalty as tmiss-thit, and alpha = 0.99.
				est := infotheory.MeasurementsRequired(c.MC.Diff(), 19, c.Res.SigmaT, 0.99)
				estStr := "inf"
				if !math.IsInf(est, 1) {
					estStr = fmt.Sprintf("%.0f", est)
				}
				t.AddRow(base.name, fmt.Sprintf("%d", size),
					fmt.Sprintf("%.3f", c.MC.Diff()), meas, outcome, estStr)
			}
			t.AddNote("paper (SA): P1-P2 = 0.652/0.332/0.127/0.044/0.012/0.006; 65k/1.87M/16.7M measurements, no success >= size 8 after 2^24")
			t.AddNote("paper (Newcache): P1-P2 = 0.576/0.292/0.119/0.045/0.016/0.007; 244k/2.1M, no success >= size 4 after 2^24")
			t.AddNote("search cap: %d samples; Eq.5 column extrapolates with alpha=0.99, tmiss-thit=19 cycles (L2 hit - L1 hit)", sc.AttackMaxSamples)
			return t
		},
	}
}

// Table3Cell runs one Table III cell in isolation — the SA-based random
// fill cache at the given window size — and returns it as a one-row table.
// It exists so benchmarks can time a single cell's sharded pipeline (Monte
// Carlo + measurements-to-success search) across worker counts without
// paying for the other eleven cells.
func Table3Cell(sc Scale, size int) *Table {
	c, err := table3Cell(context.Background(), sc, sc.engine(), sim.KindSA, size)
	if err != nil {
		panic(err)
	}
	t := &Table{
		Title:   fmt.Sprintf("Table III cell: RandomFill+4-way SA, window %d", size),
		Headers: []string{"P1-P2", "measurements", "success"},
	}
	t.AddRow(fmt.Sprintf("%.3f", c.MC.Diff()), fmt.Sprintf("%d", c.Res.Measurements),
		fmt.Sprintf("%v", c.Res.Success))
	return t
}

// figure5Ratios is Figure 5's window-size axis, normalized to the
// security-critical region size M.
var figure5Ratios = []float64{0.25, 0.5, 1, 2, 4, 8}

// figure5Plan reproduces the storage-channel capacity chart: normalized
// capacity vs window size normalized to the security-critical region size,
// for M = 8, 16, 64, 128 lines, one window ratio per unit.
func figure5Plan(Scale) unitPlan[[4]float64] {
	ms := []int{8, 16, 64, 128}
	return unitPlan[[4]float64]{
		n: len(figure5Ratios),
		run: func(_ context.Context, i int) ([4]float64, error) {
			var caps [4]float64
			for k, m := range ms {
				w := rng.Symmetric(int(figure5Ratios[i] * float64(m)))
				caps[k] = infotheory.NormalizedCapacity(m, w.A, w.B)
			}
			return caps, nil
		},
		render: func(rows [][4]float64) *Table {
			t := &Table{
				Title:   "Figure 5: normalized channel capacity vs normalized window size",
				Headers: []string{"window/M", "M=8", "M=16", "M=64", "M=128"},
			}
			for i, caps := range rows {
				row := []string{fmt.Sprintf("%g", figure5Ratios[i])}
				for _, c := range caps {
					row = append(row, fmt.Sprintf("%.4f", c))
				}
				t.AddRow(row...)
			}
			t.AddNote("capacity normalized to demand fetch (log2 M bits); paper: >10x reduction at window = 2M, boundary effect smaller for larger M")
			return t
		},
	}
}
