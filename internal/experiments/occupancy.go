package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
)

// occCell is one design's row of the security x performance matrix: both
// attack channels plus the AES-CBC performance of the same architecture.
// All six fields checkpoint exactly (bit-patterns, not formatted strings).
type occCell struct {
	reuseAcc, reuseMI float64
	occAcc, occMI     float64
	ipc, mpki         float64
}

// occCellSize is the fixed checkpoint payload size: six float64 bit
// patterns.
const occCellSize = 6 * 8

func (c occCell) MarshalBinary() ([]byte, error) {
	buf := make([]byte, occCellSize)
	for i, v := range [6]float64{c.reuseAcc, c.reuseMI, c.occAcc, c.occMI, c.ipc, c.mpki} {
		binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf, nil
}

func (c *occCell) UnmarshalBinary(data []byte) error {
	if len(data) != occCellSize {
		return attacks.ErrCorrupt
	}
	var v [6]float64
	for i := range v {
		v[i] = math.Float64frombits(binary.BigEndian.Uint64(data[8*i:]))
	}
	c.reuseAcc, c.reuseMI, c.occAcc, c.occMI, c.ipc, c.mpki = v[0], v[1], v[2], v[3], v[4], v[5]
	return nil
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
		reuseAcc: reuse.Accuracy, reuseMI: reuse.MutualInfo,
		occAcc: occ.Accuracy, occMI: occ.MutualInfo,
		ipc: res.IPC(), mpki: res.MPKI(),
	}
}

// matrixPlan is a matrix experiment's work-unit plan: one cell per unit,
// policy-major over policies and in registry order over the designs. Each
// experiment derives its per-unit seeds from the master seed through its
// own salt, so cells are independent pure functions of (Scale, index).
func matrixPlan(sc Scale, exp string, salt uint64, policies []string, b cellBudget) unitPlan[occCell] {
	designs := securecache.All()
	seedFor := func(i int) uint64 {
		return rng.New(sc.Seed ^ salt).SplitSeed(uint64(i + 1))
	}
	victim := lazyVictim(sc)
	return unitPlan[occCell]{
		exp:  exp,
		n:    len(policies) * len(designs),
		seed: seedFor,
		run: func(_ context.Context, i int) (occCell, error) {
			return matrixCell(sc, policies[i/len(designs)], designs[i%len(designs)], b, seedFor(i), victim()), nil
		},
		marshal: func(c occCell) ([]byte, error) { return c.MarshalBinary() },
		unmarshal: func(data []byte) (occCell, error) {
			var c occCell
			err := c.UnmarshalBinary(data)
			return c, err
		},
	}
}

// occupancyPlan is OccupancyMatrix's plan: every registered design under
// its own policy, one design's full cell per unit.
func occupancyPlan(sc Scale) unitPlan[occCell] {
	return matrixPlan(sc, "OccupancyMatrix", 0x0cc9, []string{""}, occupancyBudget(sc))
}

// OccupancyMatrixCtx builds the security x performance matrix over every
// registered secure-cache design: the reuse (flush + reload) channel the
// paper evaluates, the cache-occupancy channel that needs no shared memory,
// and the AES-CBC IPC/MPKI of the same architecture. Its work unit is one
// design's full cell, restored in registry order, so the emitted table is
// byte-identical across worker counts and across kill/resume boundaries.
func OccupancyMatrixCtx(ctx context.Context, sc Scale) (*Table, error) {
	designs := securecache.All()
	cells, err := runShards(ctx, sc, occupancyPlan(sc))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Occupancy matrix: attack channels vs performance per secure cache design",
		Headers: []string{"design", "reuse acc", "reuse MI (bits)",
			"occupancy acc", "occupancy MI (bits)", "AES IPC", "AES MPKI"},
	}
	for i, c := range cells {
		t.AddRow(designs[i].Name,
			fmt.Sprintf("%.3f", c.reuseAcc), fmt.Sprintf("%.3f", c.reuseMI),
			fmt.Sprintf("%.3f", c.occAcc), fmt.Sprintf("%.3f", c.occMI),
			fmt.Sprintf("%.3f", c.ipc), fmt.Sprintf("%.2f", c.mpki))
	}
	b := occupancyBudget(sc)
	t.AddNote("reuse: flush+reload over the %d-line AES table +/-16 lines, %d trials (chance acc 1/16, max MI 4 bits)",
		t4Region().NumLines(), b.reuseTrials)
	t.AddNote("occupancy: 96-line prime on a 128-line cache, victim sweep %v, %d trials/size (chance acc 1/4, max MI 2 bits); no shared addresses",
		b.victimSizes, b.occTrials)
	t.AddNote("performance: AES-CBC (%d bytes) as the simulator L1; randfill = SA + window [-16,+15], others demand fill",
		sc.CBCBytes)
	return t, nil
}
