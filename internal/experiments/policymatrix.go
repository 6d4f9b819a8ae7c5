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

// policyMatrixVictimSizes is the occupancy sweep of the policy matrix: the
// two ends of the OccupancyMatrix sweep, enough to score the channel open or
// closed without paying the full four-point sweep 42 times.
var policyMatrixVictimSizes = []int{32, 96}

// policyCell evaluates one (policy, design) pair: the reuse and occupancy
// channels plus AES-CBC IPC/MPKI, exactly the occupancyCell protocol but with
// the replacement policy overridden on both the attack caches (via
// securecache.Config.Policy) and the simulator L1 (via Config.L1Policy). The
// per-channel budgets are a fraction of OccupancyMatrix's because the matrix
// has six times the cells. victim is the run's shared compiled AES-CBC trace.
func policyCell(sc Scale, pol string, d securecache.Design, seed uint64, victim *trace.Compiled) occCell {
	mk := func(geom cache.Geometry) func(src *rng.Source) securecache.SecureCache {
		return func(src *rng.Source) securecache.SecureCache {
			return d.New(securecache.Config{Geom: geom, Policy: pol}, src)
		}
	}

	reuse := attacks.Reuse(attacks.ReuseConfig{
		NewCache: mk(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}),
		Region:   t4Region(),
		Pad:      16,
		Trials:   sc.MonteCarloTrials / 40,
		Seed:     seed,
	})

	occ := attacks.Occupancy(attacks.OccupancyConfig{
		NewCache:    mk(cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}), // 128 lines
		Lines:       96,
		VictimSizes: policyMatrixVictimSizes,
		Trials:      sc.MonteCarloTrials / 200,
		Seed:        seed,
	})

	cfg := sim.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.L1Policy = pol
	tc := sim.ThreadConfig{}
	if d.Name == "randfill" {
		cfg.L1Kind = sim.KindSA
		tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(32)}
	} else {
		cfg.L1Kind = sim.CacheKind(d.Name)
	}
	res := runAES(cfg, tc, victim)

	return occCell{
		reuseAcc: reuse.Accuracy, reuseMI: reuse.MutualInfo,
		occAcc: occ.Accuracy, occMI: occ.MutualInfo,
		ipc: res.IPC(), mpki: res.MPKI(),
	}
}

// policyPlan is PolicyMatrix's work-unit plan: one (policy, design) cell
// per unit, policy-major in registry order. Per-unit seeds derive from the
// master seed through a dedicated stream (distinct from OccupancyMatrix's
// 0x0cc9), so cells are independent pure functions of (Scale, index).
func policyPlan(sc Scale) unitPlan[occCell] {
	policies := cache.PolicyNames()
	designs := securecache.All()
	seedFor := func(i int) uint64 {
		return rng.New(sc.Seed ^ 0x9011c).SplitSeed(uint64(i + 1))
	}
	victim := lazyVictim(sc)
	return unitPlan[occCell]{
		exp:  "PolicyMatrix",
		n:    len(policies) * len(designs),
		seed: seedFor,
		run: func(_ context.Context, i int) (occCell, error) {
			return policyCell(sc, policies[i/len(designs)], designs[i%len(designs)], seedFor(i), victim()), nil
		},
		marshal: func(c occCell) ([]byte, error) { return c.MarshalBinary() },
		unmarshal: func(data []byte) (occCell, error) {
			var c occCell
			err := c.UnmarshalBinary(data)
			return c, err
		},
	}
}

// PolicyMatrixCtx sweeps every replacement policy across every registered
// secure-cache design: the Peters et al. axis that the design papers mostly
// fix at one policy. Each (policy, design) cell scores the reuse and
// occupancy channels and the AES-CBC IPC/MPKI of the combined architecture.
// The work unit is one cell, restored in (policy-major, registry-order)
// order, so the emitted table is byte-identical across worker counts and
// across kill/resume boundaries.
func PolicyMatrixCtx(ctx context.Context, sc Scale) (*Table, error) {
	policies := cache.PolicyNames()
	designs := securecache.All()
	cells, err := runShards(ctx, sc, policyPlan(sc))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Policy matrix: replacement policy x secure cache design, channels vs performance",
		Headers: []string{"policy", "design", "reuse acc", "reuse MI (bits)",
			"occupancy acc", "occupancy MI (bits)", "AES IPC", "AES MPKI"},
	}
	for i, c := range cells {
		t.AddRow(policies[i/len(designs)], designs[i%len(designs)].Name,
			fmt.Sprintf("%.3f", c.reuseAcc), fmt.Sprintf("%.3f", c.reuseMI),
			fmt.Sprintf("%.3f", c.occAcc), fmt.Sprintf("%.3f", c.occMI),
			fmt.Sprintf("%.3f", c.ipc), fmt.Sprintf("%.2f", c.mpki))
	}
	t.AddNote("reuse: flush+reload over the %d-line AES table +/-16 lines, %d trials (chance acc 1/16, max MI 4 bits)",
		t4Region().NumLines(), sc.MonteCarloTrials/40)
	t.AddNote("occupancy: 96-line prime on a 128-line cache, victim sweep %v, %d trials/size (chance acc 1/2, max MI 1 bit); no shared addresses",
		policyMatrixVictimSizes, sc.MonteCarloTrials/200)
	t.AddNote("performance: AES-CBC (%d bytes) as the simulator L1 under the same policy; randfill = SA + window [-16,+15], others demand fill",
		sc.CBCBytes)
	t.AddNote("policy overrides victim selection only; placement randomization (index keys, remaps) is unchanged")
	return t, nil
}
