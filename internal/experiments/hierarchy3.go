package experiments

import (
	"context"
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/rng"
	"randfill/internal/sim"
)

// placeResult is one Hierarchy3 placement's outcome: IPC, memory accesses
// and the random fills issued at each level.
type placeResult struct {
	IPC float64
	Mem uint64
	RF  [3]uint64
}

// hierarchy3Plan sweeps which levels of a three-level hierarchy run the
// random fill policy — the experiment the two-level machine structurally
// could not express. Section VI evaluates L1-only vs L1+L2 and argues lower
// levels tolerate the pollution because of their capacity; the 3-level
// sweep extends that argument one level down: random fill at the L3 is
// nearly free, at the L2 cheap, and the latency cost concentrates at the
// L1, where nofill forwarding robs the busiest cache of its reuse. A unit
// is one placement.
func hierarchy3Plan(sc Scale) unitPlan[placeResult] {
	victim := lazyVictim(sc)
	w := rng.Window{A: 8, B: 7}

	placements := []struct {
		name       string
		l1, l2, l3 bool
	}{
		{"none (demand)", false, false, false},
		{"L1", true, false, false},
		{"L2", false, true, false},
		{"L3", false, false, true},
		{"L1+L2", true, true, false},
		{"L1+L3", true, false, true},
		{"L2+L3", false, true, true},
		{"L1+L2+L3", true, true, true},
	}
	return unitPlan[placeResult]{
		n: len(placements),
		run: func(_ context.Context, i int) (placeResult, error) {
			p := placements[i]
			cfg := sim.DefaultConfig()
			cfg.Seed = sc.Seed
			cfg.Levels = []sim.LevelConfig{
				{Geom: cache.Geometry{SizeBytes: 256 * 1024, Ways: 8}, HitLat: 12},
				{Geom: cache.Geometry{SizeBytes: 2 * 1024 * 1024, Ways: 16}, HitLat: 40},
			}
			if p.l2 {
				cfg.Levels[0].Window = w
			}
			if p.l3 {
				cfg.Levels[1].Window = w
			}
			tc := sim.ThreadConfig{}
			if p.l1 {
				tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
			}
			m := sim.New(cfg)
			res := m.RunTrace(tc, victim())
			r := placeResult{IPC: res.IPC(), Mem: m.MemAccesses()}
			r.RF[0] = res.RandomFills
			for k := 1; k <= 2; k++ {
				if fs := m.Hierarchy().Level(k).FillStats(); fs != nil {
					r.RF[k] = fs.RandomIssued
				}
			}
			return r, nil
		},
		render: func(results []placeResult) *Table {
			t := &Table{
				Title:   "3-level hierarchy: random fill placement (AES-CBC, window [-8,+7], L1 32K/L2 256K/L3 2M)",
				Headers: []string{"random fill at", "IPC vs demand", "mem traffic vs demand", "rf issued L1/L2/L3"},
			}
			base := results[0]
			for i, r := range results {
				t.AddRow(placements[i].name,
					pct(r.IPC/base.IPC),
					pct(float64(r.Mem)/float64(base.Mem)),
					fmt.Sprintf("%d/%d/%d", r.RF[0], r.RF[1], r.RF[2]))
			}
			t.AddNote("each lower level runs a full fill engine (nofill forwarding + drop-if-present + underflow clamping); background fills add traffic, never demand latency")
			t.AddNote("extends Section VI one level down: pollution tolerance grows with capacity, so the IPC cost of random fill concentrates at the L1")
			return t
		},
	}
}
