package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"randfill/internal/checkpoint"
)

// MinTTL is the shortest claim and lease duration the fabric runs on: both
// are renewed every TTL/3, which must be a positive interval.
const MinTTL = 3 * time.Nanosecond

// WorkerConfig configures one worker process (or in-process worker loop).
type WorkerConfig struct {
	// Dir is the fabric root directory.
	Dir string
	// ID is this worker's unique id (claim owner string).
	ID string
	// Plan enumerates and executes the experiment's units.
	Plan Plan
	// Store is the shared checkpoint store, opened on Layout.CheckpointDir.
	// Any hooks already installed (fault plans) see every Put.
	Store *checkpoint.Store
	// TTL is the claim duration the fabric runs on; renewals happen every
	// TTL/3.
	TTL time.Duration
	// Poll is the idle re-scan interval.
	Poll time.Duration
	// IdleExit, when positive, makes the worker exit cleanly after going
	// that long without finding an unclaimed unit.
	IdleExit time.Duration
	// Clock supplies wall-clock reads; nil means SystemClock. The
	// clock-skew fault substitutes SkewedClock.
	Clock Clock
	// Track, when non-nil, observes unit start/finish for aborted markers.
	Track *InFlight
	// BeforeUnit runs before the worker's n-th claimed unit executes
	// (1-based); the stall-worker fault sleeps here, before renewals start,
	// so the claim expires naturally.
	BeforeUnit func(n int)
	// AfterUnit runs after the worker's n-th completed unit (1-based); the
	// kill-worker fault exits the process here.
	AfterUnit func(n int)
	// AfterClaimWrite runs after each claim write becomes visible; the
	// torn-lease fault damages the file here.
	AfterClaimWrite func(path string)
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// WorkerResult summarizes a worker's run.
type WorkerResult struct {
	// Completed counts units this worker ran to a durable checkpoint,
	// including units another worker also ran.
	Completed int
}

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, "worker %s: "+format+"\n", append([]any{c.ID}, args...)...)
	}
}

// worker is one RunWorker loop's fixed state.
type worker struct {
	cfg    WorkerConfig
	layout Layout
	clock  Clock
	metas  []checkpoint.Meta
}

// RunWorker runs the plan's units until every one is checkpointed, the
// context is canceled, or the idle timeout fires. It schedules itself: it
// takes the first unit, aborted ones first and then in unit order, that has
// neither a checkpoint nor a live claim by another worker, claims it, and
// runs it while renewing the claim every TTL/3. Claims are advisory: two
// workers may run the same unit, and the store's first-writer-wins Put
// makes that cost work, never bytes. A unit error, including
// checkpoint.ErrPurity, is fatal.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerResult, error) {
	var res WorkerResult
	if cfg.TTL < MinTTL || cfg.Poll <= 0 {
		return res, fmt.Errorf("fabric: worker needs a TTL of at least %v and a positive Poll", MinTTL)
	}
	w := &worker{cfg: cfg, layout: Layout{Root: cfg.Dir}, clock: clockOr(cfg.Clock), metas: cfg.Plan.Metas()}
	if err := w.layout.Prepare(); err != nil {
		return res, err
	}

	var started int
	idleSince := w.clock()
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		idx, done, err := w.next()
		if err != nil {
			return res, err
		}
		if done {
			cfg.logf("every unit is checkpointed; exiting")
			return res, nil
		}
		if idx < 0 {
			if cfg.IdleExit > 0 && w.clock().Sub(idleSince) >= cfg.IdleExit {
				cfg.logf("idle for %v with units still claimed by others; exiting", cfg.IdleExit)
				return res, nil
			}
			sleepCtx(ctx, cfg.Poll)
			continue
		}
		ok, err := w.claim(idx)
		if err != nil {
			return res, err
		}
		if !ok {
			continue // another worker's claim landed first
		}

		started++
		if cfg.BeforeUnit != nil {
			cfg.BeforeUnit(started)
		}
		if err := w.run(ctx, idx); err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			return res, fmt.Errorf("fabric: unit %d: %w", idx, err)
		}
		res.Completed++
		cfg.logf("unit %d complete", idx)
		if cfg.AfterUnit != nil {
			cfg.AfterUnit(res.Completed)
		}
		idleSince = w.clock()
	}
}

// next returns the first unit in schedule order with neither a checkpoint
// nor a live claim by another worker, or -1 when every unchecked unit is
// claimed; done reports that every unit is checkpointed. Each unit's claim
// is read before its checkpoint: a worker publishes its checkpoint before
// it drops its claim, so a unit seen unclaimed and then without a
// checkpoint was not finished by its last holder.
func (w *worker) next() (idx int, done bool, err error) {
	done = true
	for _, i := range w.order() {
		c, held, err := w.held(i)
		if err != nil {
			return -1, false, err
		}
		_, checkpointed, err := w.cfg.Store.Get(w.metas[i])
		if err != nil {
			return -1, false, err
		}
		if checkpointed {
			continue
		}
		done = false
		if !held || c.Owner == w.cfg.ID {
			return i, false, nil
		}
	}
	return -1, done, nil
}

// order is the schedule: units with aborted markers first, then the rest,
// each in unit order.
func (w *worker) order() []int {
	first := make([]bool, len(w.metas))
	order := make([]int, 0, len(w.metas))
	for _, m := range ScanAborted(w.cfg.Store.Dir()) {
		if i := w.cfg.Plan.unitIndex(m); i >= 0 && !first[i] {
			first[i] = true
			order = append(order, i)
		}
	}
	for i := range w.metas {
		if !first[i] {
			order = append(order, i)
		}
	}
	return order
}

// held reads unit i's claim; held is false when the claim is absent, torn,
// expired, or names another run's identity.
func (w *worker) held(i int) (c Claim, held bool, err error) {
	c, ok, err := readClaim(w.layout.UnitClaim(w.metas[i].FileBase()))
	return c, ok && c.Unit == w.metas[i] && !c.Expired(w.clock()), err
}

// claim publishes this worker's claim on unit i with a fresh deadline; it
// both takes a unit and renews the claim while the unit runs. An unclaimed
// unit is claimed exclusively, so racing workers cannot both take it. An
// existing claim is replaced only when it is torn, expired, foreign or this
// worker's own, and then read back. claim returns false, and leaves the
// file alone, when another worker holds the unit.
func (w *worker) claim(i int) (bool, error) {
	path := w.layout.UnitClaim(w.metas[i].FileBase())
	mine := Claim{Owner: w.cfg.ID, Deadline: w.clock().Add(w.cfg.TTL).UnixNano(), Unit: w.metas[i]}
	err := writeClaim(path, mine, true, w.cfg.AfterClaimWrite)
	if !errors.Is(err, fs.ErrExist) {
		return err == nil, err
	}
	c, held, err := w.held(i)
	if err != nil || (held && c.Owner != w.cfg.ID) {
		return false, err
	}
	if err := writeClaim(path, mine, false, w.cfg.AfterClaimWrite); err != nil {
		return false, err
	}
	c, held, err = w.held(i)
	return !held || c.Owner == w.cfg.ID, err
}

// run executes claimed unit i while a goroutine renews the claim every
// TTL/3, then drops the claim and the unit's aborted marker. Renewal stops
// once another worker holds the claim; the unit still runs to the end.
func (w *worker) run(ctx context.Context, i int) error {
	meta := w.metas[i]
	stop := make(chan struct{})
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		t := time.NewTicker(w.cfg.TTL / 3)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ok, err := w.claim(i)
				if err != nil {
					w.cfg.logf("unit %d: renewing claim: %v", i, err)
				}
				if err != nil || !ok {
					return
				}
			}
		}
	}()

	if w.cfg.Track != nil {
		w.cfg.Track.Observe(meta, false)
		defer w.cfg.Track.Observe(meta, true)
	}
	err := w.cfg.Plan.RunUnit(ctx, i, w.cfg.Store)
	close(stop)
	<-renewDone
	if err != nil {
		return err
	}
	if c, held, _ := w.held(i); held && c.Owner == w.cfg.ID {
		//lint:ignore errcheck-io best-effort cleanup; a leftover claim expires and the unit's checkpoint already verifies
		os.Remove(w.layout.UnitClaim(meta.FileBase()))
	}
	ClearAborted(w.cfg.Store.Dir(), meta)
	return nil
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
