package attacks

import (
	"context"

	"randfill/internal/parexp"
	"randfill/internal/rng"
)

// NewShards builds one collision attack per shard, all against the SAME
// victim key (the shards are one attack on one victim) but each with its
// own Split-derived plaintext stream and simulator seed. The shard plan is
// a pure function of (cfg, shards): which shard draws which random values
// never depends on how many goroutines execute them. It is exported so the
// resumable experiment layer can run the plan shard-by-shard, persisting
// each completed shard's Stats through the checkpoint store.
func NewShards(cfg CollisionConfig, shards int) []*Collision {
	if shards < 1 {
		shards = 1
	}
	// Mirror NewCollision's key derivation so that, for a given cfg.Seed,
	// the sharded attack targets the same victim key as the serial one.
	root := rng.New(cfg.Seed ^ 0xc0111510)
	key := cfg.Key
	if key == nil {
		key = make([]byte, 16)
		root.Bytes(key)
	}
	out := make([]*Collision, shards)
	for s := range out {
		scfg := cfg
		scfg.Key = key
		scfg.Seed = root.SplitSeed(uint64(s))
		// Give each shard's machine (random fill engine, replacement
		// randomness) its own stream too, so shards are independent
		// Monte Carlo samples of the same victim, not replicas.
		scfg.Sim.Seed = scfg.Seed ^ 0x5ead
		out[s] = NewCollision(scfg)
	}
	return out
}

// ShardSeed returns the plaintext-stream seed NewShards derives for shard s
// of cfg — the identity a checkpoint of that shard is bound to.
func ShardSeed(cfg CollisionConfig, s int) uint64 {
	return rng.New(cfg.Seed ^ 0xc0111510).SplitSeed(uint64(s))
}

// MergeShardStats folds the shard states together in shard-index order and
// returns the aggregate; the shards' own accumulators are left untouched.
func MergeShardStats(shards []*Collision) *CollisionStats {
	agg := shards[0].Stats().Clone()
	for _, a := range shards[1:] {
		agg.Merge(a.Stats())
	}
	return agg
}

// MergeStats is MergeShardStats over bare accumulator states, the form the
// checkpoint layer restores: states[0] seeds the aggregate (via Clone) and
// the rest fold in, in index order. Because the serialized states
// round-trip exactly, merging restored states is byte-identical to merging
// the live shards they were saved from.
func MergeStats(states []*CollisionStats) *CollisionStats {
	agg := states[0].Clone()
	for _, s := range states[1:] {
		agg.Merge(s)
	}
	return agg
}

// MeasurementsToSuccessShardedCtx is the parallel measurements-to-success
// search behind Table III: the sample budget is consumed in rounds of batch
// measurements, each round split over the fixed shard plan; after every
// round the shard states merge (in shard order) and the aggregate is
// checked for full key recovery, exactly like the serial search's batch
// checkpoints. Reported Measurements is the aggregate sample count at the
// first successful checkpoint.
//
// The result is a function of (cfg, batch, maxSamples, shards) only —
// worker count changes wall-clock, never the returned numbers. Note the
// numbers do differ from the serial MeasurementsToSuccessCtx at equal budgets:
// the shards are independent measurement streams, so the grouped means they
// merge are a different (equally valid) Monte Carlo sample of the same
// attack.
//
// Cancellation is checked between rounds and between shard collections; a
// cancelled search, like a budget checkSearchBudget rejects, returns an
// error and no result. The search's
// round-by-round early exit is why it checkpoints as one unit rather than
// per shard: a shard's stopping point depends on every other shard's
// measurements at each round boundary.
func MeasurementsToSuccessShardedCtx(ctx context.Context, eng *parexp.Engine, cfg CollisionConfig, batch, maxSamples, shards int) (SearchResult, error) {
	if err := checkSearchBudget(batch, maxSamples); err != nil {
		return SearchResult{}, err
	}
	atks := NewShards(cfg, shards)
	best := 0
	collected := 0
	agg := MergeShardStats(atks) // degenerate budgets report an empty aggregate
	for collected < maxSamples {
		n := batch
		if rem := maxSamples - collected; n > rem {
			n = rem
		}
		counts := parexp.SplitCounts(n, len(atks))
		err := eng.ForEachCtx(ctx, len(atks), func(_ context.Context, s int) error {
			atks[s].Collect(counts[s])
			return nil
		})
		if err != nil {
			return SearchResult{}, err
		}
		collected += n
		agg = MergeShardStats(atks)
		if c := agg.CorrectPairs(); c > best {
			best = c
		}
		if agg.Success() {
			return SearchResult{
				Measurements: agg.Samples(),
				Success:      true,
				CorrectPairs: int64(agg.Pairs()),
				SigmaT:       agg.SigmaT(),
			}, nil
		}
	}
	return SearchResult{
		Measurements: agg.Samples(),
		Success:      false,
		CorrectPairs: int64(best),
		SigmaT:       agg.SigmaT(),
	}, nil
}
