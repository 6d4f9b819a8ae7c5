package attacks

import (
	"context"
	"errors"
	"testing"
	"time"

	"randfill/internal/parexp"
	"randfill/internal/sim"
)

// search runs the serial or the sharded measurements-to-success search on
// one budget. The deadline turns a search that never ends into a failed
// test instead of a hung one.
func search(sharded bool, batch, maxSamples int) (SearchResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg := CollisionConfig{Sim: sim.AttackerConfig(), Seed: 1}
	if sharded {
		return MeasurementsToSuccessShardedCtx(ctx, parexp.New(1), cfg, batch, maxSamples, parexp.Shards)
	}
	return MeasurementsToSuccessCtx(ctx, cfg, batch, maxSamples)
}

// TestSearchRejectsEndlessBudget: a batch that collects no sample never
// reaches the cap, and no sample count reaches a negative cap. Both
// searches return an error for such a budget at once, not ctx's deadline.
func TestSearchRejectsEndlessBudget(t *testing.T) {
	for _, b := range []struct {
		name              string
		batch, maxSamples int
	}{
		{"batch0", 0, 100},
		{"batch-1", -1, 100},
		{"cap-5", 100, -5},
	} {
		for _, sharded := range []bool{false, true} {
			res, err := search(sharded, b.batch, b.maxSamples)
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s (sharded %v): err = %v, want a budget error", b.name, sharded, err)
			}
			if res != (SearchResult{}) {
				t.Errorf("%s (sharded %v): result %+v, want the empty result", b.name, sharded, res)
			}
		}
	}
}

// TestSearchZeroCapIsEmpty: a zero cap is a valid, empty search: no error
// and no measurement.
func TestSearchZeroCapIsEmpty(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		res, err := search(sharded, 100, 0)
		if err != nil || res != (SearchResult{}) {
			t.Errorf("sharded %v: zero cap returned %+v, %v; want an empty result and no error", sharded, res, err)
		}
	}
}
