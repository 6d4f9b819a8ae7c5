package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"randfill/internal/atomicio"
	"randfill/internal/checkpoint"
)

// ErrCoordinatorHeld reports that another coordinator holds a live lease on
// the fabric directory; the second coordinator must refuse to start (exit
// code 5 in cmd/experiments).
var ErrCoordinatorHeld = errors.New("fabric: another coordinator holds a live lease")

// CoordinatorConfig configures the coordinator.
type CoordinatorConfig struct {
	// Dir is the fabric root directory.
	Dir string
	// ID is this coordinator's id (lease owner string).
	ID string
	// Plan enumerates the experiment's units.
	Plan Plan
	// Store is the shared checkpoint store on Layout.CheckpointDir.
	Store *checkpoint.Store
	// TTL is the coordinator lease's duration; it is renewed every TTL/3.
	TTL time.Duration
	// Poll is the scan interval.
	Poll time.Duration
	// Clock supplies wall-clock reads; nil means SystemClock.
	Clock Clock
	// AfterClaimWrite runs after each coordinator lease write becomes
	// visible (torn-lease fault hook).
	AfterClaimWrite func(path string)
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// CoordinatorResult summarizes a coordinator run.
type CoordinatorResult struct {
	// Redispatched counts unit claims the coordinator saw lost — expired,
	// or taken over by another worker — each counted once.
	Redispatched int
}

func (c CoordinatorConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "coordinator %s: "+format+"\n", append([]any{c.ID}, args...)...)
	}
}

// RunCoordinator acquires the coordinator lease (refusing a live one held
// by someone else with ErrCoordinatorHeld) and waits until every unit has
// a verified checkpoint, counting lost claims as re-dispatches, then writes
// the done marker. It dispatches nothing: workers schedule themselves. On
// context cancellation it returns ctx.Err().
func RunCoordinator(ctx context.Context, cfg CoordinatorConfig) (CoordinatorResult, error) {
	var res CoordinatorResult
	if cfg.TTL < MinTTL || cfg.Poll <= 0 {
		return res, fmt.Errorf("fabric: coordinator needs a TTL of at least %v and a positive Poll", MinTTL)
	}
	layout := Layout{Root: cfg.Dir}
	if err := layout.Prepare(); err != nil {
		return res, err
	}
	clock := clockOr(cfg.Clock)
	if err := acquireCoordinator(layout, cfg, clock); err != nil {
		return res, err
	}
	cfg.logf("acquired fabric %s", cfg.Dir)

	metas := cfg.Plan.Metas()
	watches := make([]claimWatch, len(metas))
	lastRenew := clock()
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		now := clock()
		if now.Sub(lastRenew) >= cfg.TTL/3 {
			if err := writeClaim(layout.CoordinatorLease(), Claim{
				Owner: cfg.ID, Deadline: now.Add(cfg.TTL).UnixNano(),
			}, false, cfg.AfterClaimWrite); err != nil {
				return res, err
			}
			lastRenew = now
		}

		done, err := cfg.Store.Complete(metas)
		if err != nil {
			return res, err
		}
		remaining := 0
		for i, m := range metas {
			if done[i] {
				continue
			}
			remaining++
			c, ok, err := readClaim(layout.UnitClaim(m.FileBase()))
			if err != nil {
				return res, err
			}
			if ok && c.Unit == m {
				if prev, lost := watches[i].observe(c, now); lost {
					res.Redispatched++
					cfg.logf("unit %d: claim of %s lost; counting a re-dispatch", i, prev)
				}
			}
		}
		if remaining == 0 {
			if err := atomicio.WriteFile(layout.DonePath(), []byte("done\n"), 0o644); err != nil {
				return res, err
			}
			cfg.logf("all %d units checkpointed; done marker written", len(metas))
			return res, nil
		}
		sleepCtx(ctx, cfg.Poll)
	}
}

// acquireCoordinator takes the coordinator lease unless someone else holds
// a live one, which yields ErrCoordinatorHeld. An expired, torn or absent
// lease is simply taken over.
func acquireCoordinator(layout Layout, cfg CoordinatorConfig, clock Clock) error {
	prev, ok, err := readClaim(layout.CoordinatorLease())
	if err != nil {
		return err
	}
	now := clock()
	if ok && prev.Owner != cfg.ID && !prev.Expired(now) {
		return fmt.Errorf("%w: %q until %s", ErrCoordinatorHeld,
			prev.Owner, time.Unix(0, prev.Deadline).UTC().Format(time.RFC3339))
	}
	if err := writeClaim(layout.CoordinatorLease(), Claim{
		Owner: cfg.ID, Deadline: now.Add(cfg.TTL).UnixNano(),
	}, false, cfg.AfterClaimWrite); err != nil {
		return err
	}
	// Read back: two starters racing past the liveness check serialize on
	// the atomic rename — the loser sees the winner's lease and refuses. A
	// torn read-back (the torn-lease fault) is not a loss.
	cur, ok, err := readClaim(layout.CoordinatorLease())
	if err != nil {
		return err
	}
	if ok && cur.Owner != cfg.ID {
		return fmt.Errorf("%w: lost acquisition race to %q", ErrCoordinatorHeld, cur.Owner)
	}
	return nil
}

// claimWatch follows one unit's claim across coordinator polls so that
// each lost claim counts once as a re-dispatch.
type claimWatch struct {
	owner string // holder of the last claim seen
	lost  bool   // that claim was already counted as lost
}

// observe records the unit's current claim c and reports whether it shows
// the previous holder's claim lost: expired, or replaced by another
// owner's. prev names the holder that lost it.
func (w *claimWatch) observe(c Claim, now time.Time) (prev string, lost bool) {
	prev = w.owner
	if c.Owner != w.owner {
		lost = w.owner != "" && !w.lost
		w.owner, w.lost = c.Owner, false
	}
	expired := c.Expired(now)
	if expired && !w.lost {
		prev, lost = c.Owner, true
	}
	w.lost = expired
	return prev, lost
}
