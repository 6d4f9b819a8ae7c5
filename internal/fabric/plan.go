package fabric

import (
	"context"

	"randfill/internal/checkpoint"
)

// Plan is the type-erased description of one experiment's work units — the
// same fixed shard plan the in-process runShards driver executes, exposed
// so workers can schedule and run units one at a time.
// internal/experiments provides these (PlanFor); fabric never imports the
// experiment layer.
type Plan struct {
	// Name is the experiment name ("Figure2", "PolicyMatrix", ...).
	Name string
	// Units is the number of independent work units.
	Units int
	// Meta returns unit i's checkpoint identity. It must be a pure
	// function of the run configuration — every process in the fabric
	// derives the same identities, and a claim naming any other identity
	// is foreign and ignored.
	Meta func(i int) checkpoint.Meta
	// RunUnit executes unit i and flushes its result through store (one
	// checkpoint Put). The result must be a pure function of the
	// configuration and i: that purity is what makes a re-run or
	// double-executed unit byte-identical, and with it the whole fabric
	// crash-safe.
	RunUnit func(ctx context.Context, i int, store *checkpoint.Store) error
}

// Metas materializes every unit identity in index order.
func (p Plan) Metas() []checkpoint.Meta {
	out := make([]checkpoint.Meta, p.Units)
	for i := range out {
		out[i] = p.Meta(i)
	}
	return out
}

// unitIndex finds the unit whose identity matches m exactly; -1 when m is
// foreign to this plan (different experiment, config hash, or stream
// version — e.g. a marker written for another run sharing the directory).
func (p Plan) unitIndex(m checkpoint.Meta) int {
	if m.Shard < 0 || m.Shard >= p.Units {
		return -1
	}
	if p.Meta(m.Shard) != m {
		return -1
	}
	return m.Shard
}
