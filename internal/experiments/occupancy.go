package experiments

import (
	"context"
	"fmt"

	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
)

// occCell is one design's row of the security x performance matrix: both
// attack channels plus the AES-CBC performance of the same architecture.
type occCell struct {
	ReuseAcc, ReuseMI float64
	OccAcc, OccMI     float64
	IPC, MPKI         float64
}

// cells formats the row's six measured cells.
func (c occCell) cells() []string {
	return []string{
		fmt.Sprintf("%.3f", c.ReuseAcc), fmt.Sprintf("%.3f", c.ReuseMI),
		fmt.Sprintf("%.3f", c.OccAcc), fmt.Sprintf("%.3f", c.OccMI),
		fmt.Sprintf("%.3f", c.IPC), fmt.Sprintf("%.2f", c.MPKI),
	}
}

// cellBudget is a matrix cell's attack budget: the reuse channel's trials,
// the occupancy channel's trials per victim size, and the victim
// working-set sizes (in lines) that form the occupancy channel's input.
type cellBudget struct {
	reuseTrials, occTrials int
	victimSizes            []int
}

// occupancyBudget is OccupancyMatrix's budget. The victim sweep runs
// against a 128-line cache with a 96-line attacker prime (3/4 of capacity —
// a full prime self-thrashes on way-partitioned designs and saturates the
// probe).
func occupancyBudget(sc Scale) cellBudget {
	return cellBudget{sc.MonteCarloTrials / 10, sc.MonteCarloTrials / 100, []int{16, 32, 64, 96}}
}

// matrixCell evaluates one (policy, design) pair: the reuse (flush +
// reload) channel over the AES table region, the occupancy channel over
// the victim size sweep, and the AES-CBC IPC/MPKI of the same architecture
// on the timing simulator. pol overrides the replacement policy on both the
// attack caches (securecache.Config.Policy) and the simulator L1
// (Config.L1Policy); "" keeps each design's own. victim is the run's
// shared compiled AES-CBC trace.
func matrixCell(sc Scale, pol string, d securecache.Design, b cellBudget, seed uint64, victim *trace.Compiled) occCell {
	mk := func(geom cache.Geometry) func(src *rng.Source) securecache.SecureCache {
		return func(src *rng.Source) securecache.SecureCache {
			return d.New(securecache.Config{Geom: geom, Policy: pol}, src)
		}
	}

	// Reuse: the attacker observes the paper's best case — the table
	// region extended by the default window on both sides — so windowed
	// and demand designs are scored over the same observable range.
	reuse := attacks.Reuse(attacks.ReuseConfig{
		NewCache: mk(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}),
		Region:   t4Region(),
		Pad:      16,
		Trials:   b.reuseTrials,
		Seed:     seed,
	})

	occ := attacks.Occupancy(attacks.OccupancyConfig{
		NewCache:    mk(cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}), // 128 lines
		Lines:       96,
		VictimSizes: b.victimSizes,
		Trials:      b.occTrials,
		Seed:        seed,
	})

	// Performance: the same architecture as the simulator's L1 running the
	// Figure 6 AES-CBC workload; randfill is the SA cache with the paper's
	// default window, every other design runs demand fill.
	cfg := sim.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.L1Policy = pol
	kind, tc := sim.DesignL1(d.Name)
	cfg.L1Kind = kind
	res := sim.New(cfg).RunTrace(tc, victim)

	return occCell{
		ReuseAcc: reuse.Accuracy, ReuseMI: reuse.MutualInfo,
		OccAcc: occ.Accuracy, OccMI: occ.MutualInfo,
		IPC: res.IPC(), MPKI: res.MPKI(),
	}
}

// matrixPlan is a matrix experiment's work-unit plan: one cell per unit,
// policy-major over policies and in registry order over the designs. Each
// experiment derives its per-unit seeds from the master seed through its
// own salt, so cells are independent pure functions of (Scale, index).
func matrixPlan(sc Scale, salt uint64, policies []string, b cellBudget, render func([]occCell) *Table) unitPlan[occCell] {
	designs := securecache.All()
	seedFor := func(i int) uint64 {
		return rng.New(sc.Seed ^ salt).SplitSeed(uint64(i + 1))
	}
	victim := lazyVictim(sc)
	return unitPlan[occCell]{
		n:    len(policies) * len(designs),
		seed: seedFor,
		run: func(_ context.Context, i int) (occCell, error) {
			return matrixCell(sc, policies[i/len(designs)], designs[i%len(designs)], b, seedFor(i), victim()), nil
		},
		render: render,
	}
}

// occupancyPlan builds the security x performance matrix over every
// registered secure-cache design: the reuse (flush + reload) channel the
// paper evaluates, the cache-occupancy channel that needs no shared memory,
// and the AES-CBC IPC/MPKI of the same architecture. Its work unit is one
// design's full cell under the design's own policy, in registry order, so
// the emitted table is byte-identical across worker counts and across
// kill/resume boundaries.
func occupancyPlan(sc Scale) unitPlan[occCell] {
	designs := securecache.All()
	b := occupancyBudget(sc)
	return matrixPlan(sc, 0x0cc9, []string{""}, b, func(cells []occCell) *Table {
		t := &Table{
			Title: "Occupancy matrix: attack channels vs performance per secure cache design",
			Headers: []string{"design", "reuse acc", "reuse MI (bits)",
				"occupancy acc", "occupancy MI (bits)", "AES IPC", "AES MPKI"},
		}
		for i, c := range cells {
			t.AddRow(append([]string{designs[i].Name}, c.cells()...)...)
		}
		t.AddNote("reuse: flush+reload over the %d-line AES table +/-16 lines, %d trials (chance acc 1/16, max MI 4 bits)",
			t4Region().NumLines(), b.reuseTrials)
		t.AddNote("occupancy: 96-line prime on a 128-line cache, victim sweep %v, %d trials/size (chance acc 1/4, max MI 2 bits); no shared addresses",
			b.victimSizes, b.occTrials)
		t.AddNote("performance: AES-CBC (%d bytes) as the simulator L1; randfill = SA + window [-16,+15], others demand fill",
			sc.CBCBytes)
		return t
	})
}
