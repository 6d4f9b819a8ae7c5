package experiments

import (
	"context"
	"fmt"

	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/rng"
	"randfill/internal/securecache"
)

// defenseRow is one cache configuration of the Section VIII comparison.
type defenseRow struct {
	name   string
	mk     func(src *rng.Source) cache.Cache
	window rng.Window
}

func defenseRows() []defenseRow {
	sa, nc, rp, nm := securecache.L1Factory("sa"), securecache.L1Factory("newcache"),
		securecache.L1Factory("rpcache"), securecache.L1Factory("nomo")
	w := rng.Symmetric(32)
	return []defenseRow{
		{"SA (demand fetch)", sa, rng.Window{}},
		{"NoMo", nm, rng.Window{}},
		{"RPcache", rp, rng.Window{}},
		{"Newcache", nc, rng.Window{}},
		{"RandomFill+SA", sa, w},
		{"RandomFill+RPcache", rp, w},
		{"RandomFill+Newcache", nc, w},
	}
}

// defensesPlan reproduces the Section VIII comparison as a measured
// matrix: each cache architecture (with and without the random fill engine)
// against one contention based attack (Prime-Probe) and one reuse based
// attack (Flush-Reload). The paper's argument is visible in the pattern:
// partitioning/randomization defenses close the contention column but not
// the reuse column; random fill closes the reuse column but not the
// contention column; only the composition closes both. A unit is one
// row's {prime-probe accuracy, flush-reload accuracy, flush-reload MI}.
func defensesPlan(sc Scale) unitPlan[[3]float64] {
	trials := max(sc.MonteCarloTrials/4, 1000)
	region := t4Region()
	rows := defenseRows()
	return unitPlan[[3]float64]{
		n: len(rows),
		run: func(_ context.Context, i int) ([3]float64, error) {
			row := rows[i]
			pp := attacks.PrimeProbe(attacks.PrimeProbeConfig{
				NewCache:     row.mk,
				Sets:         128,
				Ways:         4,
				Window:       row.window,
				VictimRegion: region,
				AttackerBase: 0x100000,
				Trials:       min(trials, 500),
				Seed:         sc.Seed,
			})
			fr := attacks.FlushReload(attacks.FlushReloadConfig{
				NewCache: row.mk,
				Window:   row.window,
				Region:   region,
				Trials:   trials,
				Seed:     sc.Seed,
			})
			return [3]float64{pp.ExactAccuracy, fr.Accuracy, fr.MutualInfo}, nil
		},
		render: func(cells [][3]float64) *Table {
			t := &Table{
				Title: "Section VIII: defenses vs attack classes (32KB 4-way L1)",
				Headers: []string{"cache", "prime-probe set accuracy",
					"flush-reload accuracy", "flush-reload bits/access"},
			}
			for i, c := range cells {
				t.AddRow(rows[i].name,
					fmt.Sprintf("%.1f%%", 100*c[0]),
					fmt.Sprintf("%.1f%%", 100*c[1]),
					fmt.Sprintf("%.3f", c[2]))
			}
			t.AddNote("paper Section VIII: partition/randomization designs stop contention attacks only; random fill stops reuse attacks only; composing them covers all known cache side channel attacks")
			return t
		},
	}
}
