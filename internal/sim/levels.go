package sim

import (
	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/hierarchy"
	"randfill/internal/rng"
)

// This file builds the levels below the L1, the only caches internal/sim
// constructs itself; the L1 comes from securecache.NewLineStore (see
// Config.buildL1). The rflint "simlayer" checker rejects direct constructor
// calls outside functions named build*, keeping the rest of the simulator
// programmed against cache.Cache and hierarchy.Level.

// buildLevels constructs the machine's full level stack from cfg, drawing
// per-level randomness from root. Stream-compatibility rule (DESIGN.md §8):
// the L1 build always consumes root.Split(1); below-L1 level k (hierarchy
// index k, so the L2 is k=1) consumes root.Split(1+k) — but ONLY when its
// window is non-zero, in increasing k order. Demand-fill levels draw
// nothing. This reproduces the historical two-level stream layout exactly
// (L1 = Split(1), L2 window generator = Split(2) only when configured), so
// thread streams (Split(100+i)) land on the same root draws as before the
// hierarchy refactor. Levels below the L1 are LRU, which draws nothing.
//
// prev and stores are a machine's previous below-L1 levels and their
// stores (empty for a new machine). Level k reuses stores[k], cleared by
// SetAssoc.Reset, when prev[k] has the same geometry, and allocates a store
// otherwise; either way the level starts empty. It returns the levels and
// the below-L1 stores they use.
func buildLevels(cfg Config, root *rng.Source, prev []LevelConfig, stores []*cache.SetAssoc) ([]*hierarchy.Level, []*cache.SetAssoc) {
	levels := []*hierarchy.Level{
		hierarchy.NewLevel(cfg.buildL1(root.Split(1)), L1HitLat),
	}
	below := make([]*cache.SetAssoc, len(cfg.Levels))
	for k, lc := range cfg.Levels {
		var c *cache.SetAssoc
		if k < len(stores) && prev[k].Geom == lc.Geom {
			c = stores[k]
			c.Reset(cache.LRU{})
		} else {
			c = cache.NewSetAssoc(lc.Geom, cache.LRU{})
		}
		below[k] = c
		lvl := hierarchy.NewLevel(c, lc.HitLat)
		if !lc.Window.Zero() {
			e := core.NewEngine(c, root.Split(uint64(2+k)))
			e.SetRR(lc.Window.A, lc.Window.B)
			lvl.WithEngine(e)
		}
		levels = append(levels, lvl)
	}
	return levels, below
}
