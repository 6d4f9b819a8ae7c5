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

// occupancyVictimSizes is the victim working-set sweep (in lines) of the
// occupancy channel, against a 128-line cache with a 96-line attacker prime
// (3/4 of capacity — a full prime self-thrashes on way-partitioned designs
// and saturates the probe).
var occupancyVictimSizes = []int{16, 32, 64, 96}

// occupancyCell evaluates one registered design: the reuse (flush + reload)
// channel over the AES table region, the occupancy channel over the victim
// size sweep, and the AES-CBC IPC/MPKI of the same architecture on the
// timing simulator. victim is the run's shared compiled AES-CBC trace.
func occupancyCell(sc Scale, d securecache.Design, seed uint64, victim *trace.Compiled) occCell {
	mk := func(geom cache.Geometry) func(src *rng.Source) securecache.SecureCache {
		return func(src *rng.Source) securecache.SecureCache {
			return d.New(securecache.Config{Geom: geom}, src)
		}
	}

	// Reuse: the attacker observes the paper's best case — the table
	// region extended by the default window on both sides — so windowed
	// and demand designs are scored over the same observable range.
	reuse := attacks.Reuse(attacks.ReuseConfig{
		NewCache: mk(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}),
		Region:   t4Region(),
		Pad:      16,
		Trials:   sc.MonteCarloTrials / 10,
		Seed:     seed,
	})

	occ := attacks.Occupancy(attacks.OccupancyConfig{
		NewCache:    mk(cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}), // 128 lines
		Lines:       96,
		VictimSizes: occupancyVictimSizes,
		Trials:      sc.MonteCarloTrials / 100,
		Seed:        seed,
	})

	// Performance: the same architecture as the simulator's L1 running the
	// Figure 6 AES-CBC workload; randfill is the SA cache with the paper's
	// default window, every other design runs demand fill.
	cfg := sim.DefaultConfig()
	cfg.Seed = sc.Seed
	kind, tc := sim.DesignL1(d.Name)
	cfg.L1Kind = kind
	res := sim.New(cfg).RunTrace(tc, victim)

	return occCell{
		reuseAcc: reuse.Accuracy, reuseMI: reuse.MutualInfo,
		occAcc: occ.Accuracy, occMI: occ.MutualInfo,
		ipc: res.IPC(), mpki: res.MPKI(),
	}
}

// occupancyPlan is OccupancyMatrix's work-unit plan: one registered
// secure-cache design's full cell per unit. Per-unit seeds derive from the
// master seed through a dedicated stream, so cells are independent pure
// functions of (Scale, index).
func occupancyPlan(sc Scale) unitPlan[occCell] {
	designs := securecache.All()
	seedFor := func(i int) uint64 {
		return rng.New(sc.Seed ^ 0x0cc9).SplitSeed(uint64(i + 1))
	}
	victim := lazyVictim(sc)
	return unitPlan[occCell]{
		exp:  "OccupancyMatrix",
		n:    len(designs),
		seed: seedFor,
		run: func(_ context.Context, i int) (occCell, error) {
			return occupancyCell(sc, designs[i], seedFor(i), victim()), nil
		},
		marshal: func(c occCell) ([]byte, error) { return c.MarshalBinary() },
		unmarshal: func(data []byte) (occCell, error) {
			var c occCell
			err := c.UnmarshalBinary(data)
			return c, err
		},
	}
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
	t.AddNote("reuse: flush+reload over the %d-line AES table +/-16 lines, %d trials (chance acc 1/16, max MI 4 bits)",
		t4Region().NumLines(), sc.MonteCarloTrials/10)
	t.AddNote("occupancy: 96-line prime on a 128-line cache, victim sweep %v, %d trials/size (chance acc 1/4, max MI 2 bits); no shared addresses",
		occupancyVictimSizes, sc.MonteCarloTrials/100)
	t.AddNote("performance: AES-CBC (%d bytes) as the simulator L1; randfill = SA + window [-16,+15], others demand fill",
		sc.CBCBytes)
	return t, nil
}
