// Package parexp is the deterministic parallel experiment engine: it runs
// the independent trials of a Monte Carlo experiment (Table III cells,
// Figure 2's encryption sweep, the ablation grids) across a pool of worker
// goroutines without giving up the repository's reproducibility contract.
//
// The contract is worker-count invariance: for a fixed seed, an experiment's
// emitted table is byte-identical at workers=1, workers=8, and any
// GOMAXPROCS. Parallelism is a pure speed knob, never a results knob. The
// engine guarantees this by construction, with three rules:
//
//  1. The shard plan is fixed by the experiment, not by the worker count.
//     An experiment splits its trial budget over a constant number of
//     shards (see Shards); workers only decide how many shards execute
//     concurrently.
//  2. Each shard draws from its own rng stream, derived up front from the
//     root seed via Split (ShardSeeds). No shard ever touches another
//     shard's Source, so the values a shard draws are independent of
//     scheduling.
//  3. Results are merged in shard-index order (MapCtx returns an
//     index-ordered slice). Floating-point accumulation order is therefore
//     fixed even though execution order is not.
//
// The rflint rngshare checker enforces rule 2 statically: a *rng.Source
// captured by a go-launched closure is flagged, forcing the
// seed-per-shard-up-front pattern this package's helpers implement.
package parexp

import (
	"runtime"

	"randfill/internal/rng"
)

// Shards is the default shard count experiments split their trial budgets
// into. It is deliberately a constant rather than "number of workers": the
// shard plan is part of the experiment's definition (it determines which
// shard draws which random values), so it must not change when the machine
// does. Eight shards saturate the common desktop core counts while keeping
// per-shard sample counts large enough for the statistics to be well
// conditioned.
const Shards = 8

// Engine executes independent work items across a fixed-size pool of worker
// goroutines. The zero value is not valid; use New.
type Engine struct {
	workers int
}

// New returns an Engine with the given concurrency. workers <= 0 selects
// GOMAXPROCS, the "use the hardware" default the -workers CLI flag exposes
// as 0. workers == 1 executes inline with no goroutines at all, so a serial
// run has a serial stack.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// ShardSeeds derives n independent shard seeds from a root seed, shard i
// getting rng.New(seed).SplitSeed(i)'s stream. The seeds are computed up
// front on the caller's goroutine: each shard then constructs its own
// Source inside its work item, so no Source is shared across goroutines and
// the per-shard streams depend only on (seed, shard index).
func ShardSeeds(seed uint64, n int) []uint64 {
	root := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = root.SplitSeed(uint64(i))
	}
	return out
}

// SplitCounts partitions total work items over n shards as evenly as
// possible: the first total%n shards get one extra item. The partition is a
// pure function of (total, n), part of the fixed shard plan.
func SplitCounts(total, n int) []int {
	if n <= 0 {
		n = 1
	}
	out := make([]int, n)
	base, rem := total/n, total%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
