// Package fabric runs one experiment's work units across several processes
// over a shared directory, the fabric directory. There is no network stack:
// the filesystem is the bus, and every file that crosses a process boundary
// goes through internal/atomicio, so a crash at any instant leaves either a
// complete artifact or a verifiably torn one.
//
// Correctness rests on one rule, in the checkpoint store rather than here:
// checkpoint.Store.Put writes a unit's frame only when no valid frame for
// it exists, and a different frame for the same unit fails with
// checkpoint.ErrPurity. Units are pure functions of their Meta, so running
// a unit twice, or in two processes at once, costs work and never bytes.
// Everything in this package only saves work:
//
//   - Claims are advisory. A worker claims a unit by publishing a
//     CRC-framed claim file naming itself, a deadline and the unit, and
//     renews it every TTL/3 while the unit runs. A torn or expired claim
//     reads as absent, and any worker may take it over. Nothing fences a
//     worker that lost its claim: its late Put is a byte-identical no-op.
//   - Workers schedule themselves from the Plan: each takes the first unit,
//     aborted ones first and then in unit order, that has neither a
//     checkpoint nor a live claim by another worker.
//   - The coordinator is optional. It holds coordinator.lease (a second
//     live coordinator refuses to start), waits for every unit to be
//     checkpointed while counting lost claims as re-dispatches, and writes
//     the done marker. The final table is rendered from the store alone, so
//     it is byte-identical to a single-process run whichever worker
//     computed which unit, how many died, or how often a unit re-ran.
//
// Directory layout under the fabric dir F:
//
//	F/ckpt/                 the shared checkpoint.Store (one file per unit)
//	F/ckpt/aborted/         best-effort markers for units in flight when a
//	                        process was hard-killed; workers take them first
//	F/claims/<unit>.claim   the current claim on a unit (exclusive create or
//	                        atomic replace; removed once it is checkpointed)
//	F/coordinator.lease     the coordinator's own claim on the directory
//	F/done                  written when every unit has a verified checkpoint
//
// DESIGN.md §14 documents the protocol, frame format, and exit codes.
package fabric

import (
	"os"
	"path/filepath"
	"time"
)

// Clock abstracts wall-clock reads so tests (and the clock-skew fault) can
// shift a process's notion of time. Claim deadlines are wall-clock times:
// the fabric is a robustness layer, not a results layer — no simulator or
// experiment state ever depends on these reads, which is why the one
// time.Now call below carries a lint suppression instead of feeding
// internal/rng.
type Clock func() time.Time

// SystemClock reads the real wall clock.
func SystemClock() Clock {
	return func() time.Time {
		//lint:ignore detrand claim deadlines are wall-clock by nature; they schedule work and never feed simulator or experiment state
		return time.Now()
	}
}

// SkewedClock reads the real wall clock offset by skew — the clock-skew
// fault plan, and nothing else, uses it.
func SkewedClock(skew time.Duration) Clock {
	base := SystemClock()
	return func() time.Time { return base().Add(skew) }
}

// Layout resolves the fabric directory's fixed structure.
type Layout struct{ Root string }

// CheckpointDir is the shared store directory.
func (l Layout) CheckpointDir() string { return filepath.Join(l.Root, "ckpt") }

// ClaimDir holds the per-unit claim files.
func (l Layout) ClaimDir() string { return filepath.Join(l.Root, "claims") }

// CoordinatorLease is the coordinator's own claim file.
func (l Layout) CoordinatorLease() string { return filepath.Join(l.Root, "coordinator.lease") }

// DonePath is the all-units-complete marker.
func (l Layout) DonePath() string { return filepath.Join(l.Root, "done") }

// UnitClaim is the claim file for one unit.
func (l Layout) UnitClaim(base string) string {
	return filepath.Join(l.ClaimDir(), base+".claim")
}

// Prepare creates the fabric directory tree.
func (l Layout) Prepare() error {
	for _, d := range []string{l.Root, l.CheckpointDir(), l.ClaimDir(), AbortDir(l.CheckpointDir())} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// clockOr returns c, or the system clock when c is nil.
func clockOr(c Clock) Clock {
	if c != nil {
		return c
	}
	return SystemClock()
}
