package experiments

import (
	"context"
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/securecache"
)

// policyBudget is PolicyMatrix's budget: a fraction of OccupancyMatrix's,
// because the matrix has six times the cells, and an occupancy sweep of
// the two ends of OccupancyMatrix's, enough to score the channel open or
// closed without paying the full four-point sweep 42 times.
func policyBudget(sc Scale) cellBudget {
	return cellBudget{sc.MonteCarloTrials / 40, sc.MonteCarloTrials / 200, []int{32, 96}}
}

// policyPlan is PolicyMatrix's plan: one (policy, design) cell per unit,
// under a seed salt distinct from OccupancyMatrix's.
func policyPlan(sc Scale) unitPlan[occCell] {
	return matrixPlan(sc, "PolicyMatrix", 0x9011c, cache.PolicyNames(), policyBudget(sc))
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
	b := policyBudget(sc)
	t.AddNote("reuse: flush+reload over the %d-line AES table +/-16 lines, %d trials (chance acc 1/16, max MI 4 bits)",
		t4Region().NumLines(), b.reuseTrials)
	t.AddNote("occupancy: 96-line prime on a 128-line cache, victim sweep %v, %d trials/size (chance acc 1/2, max MI 1 bit); no shared addresses",
		b.victimSizes, b.occTrials)
	t.AddNote("performance: AES-CBC (%d bytes) as the simulator L1 under the same policy; randfill = SA + window [-16,+15], others demand fill",
		sc.CBCBytes)
	t.AddNote("policy overrides victim selection only; placement randomization (index keys, remaps) is unchanged")
	return t, nil
}
