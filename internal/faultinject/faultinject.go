// Package faultinject is the deterministic fault harness behind the
// crash-resume test suite. A Plan is parsed from a compact spec string and
// hooks into the checkpoint store (checkpoint.Hooks), firing each fault at
// an exactly reproducible point in the run — the Nth checkpoint write —
// rather than at a wall-clock instant, so a "crash mid-run" is the same
// crash on every machine:
//
//	kill-after-puts=3            exit(137) after the 3rd successful Put,
//	                             simulating SIGKILL/OOM mid-run
//	fail-put=2                   the 2nd Put returns an injected error
//	torn-put=2                   truncate the 2nd checkpoint file in place,
//	                             simulating a torn write
//	corrupt-put=2                flip one seed-chosen bit of the 2nd file
//	delay-put=2:250ms            sleep before publishing the 2nd Put, to
//	                             push a shard past a -timeout deadline
//	seed=7                       drives the corrupt-put bit choice
//
// Process-level clauses target a whole fabric worker rather than a single
// checkpoint write; cmd/experiments wires them into the fabric hooks when
// running with -role worker (or coordinator, for torn-lease/clock-skew):
//
//	kill-worker-after-units=2    exit(137) after the worker completes its
//	                             2nd work unit — a whole-worker crash with
//	                             its leases left to expire
//	stall-worker=2:300ms         sleep before executing the worker's 2nd
//	                             unit, long enough for the lease to expire
//	                             and the unit to be re-dispatched
//	torn-lease=3                 truncate the 3rd lease file this process
//	                             publishes (dispatch, renewal, or heartbeat)
//	clock-skew=150ms             run the process on a wall clock offset by
//	                             the (possibly negative) duration, so its
//	                             deadline arithmetic disagrees with peers
//
// Clauses combine with commas: "torn-put=1,kill-after-puts=2". Counters are
// 1-based and count Puts process-wide in completion order; because the
// parallel engine's shard plan is fixed, "the 3rd completed shard" is a
// meaningful, reproducible event even though which shard completes 3rd may
// vary with scheduling.
//
// cmd/experiments exposes the spec via its -fault-plan flag (testing only).
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/rng"
)

// KillExitCode is the exit status of a kill-after-puts fault, chosen to
// mimic a SIGKILL death (128+9) so the crash-resume suite can tell an
// injected crash from an ordinary failure.
const KillExitCode = 137

// Plan is a parsed fault plan. The zero value injects nothing.
type Plan struct {
	// KillAfterPuts terminates the process after that many successful
	// checkpoint writes (0 = never).
	KillAfterPuts int
	// FailPut makes the Nth Put return an error (0 = never).
	FailPut int
	// TornPut truncates the Nth checkpoint file after it is published,
	// leaving a torn frame on disk (0 = never).
	TornPut int
	// CorruptPut flips one bit of the Nth checkpoint file after it is
	// published (0 = never).
	CorruptPut int
	// DelayPut sleeps for Delay before the Nth Put publishes (0 = never).
	DelayPut int
	// Delay is the delay-put duration.
	Delay time.Duration
	// Seed drives the corrupt-put bit choice.
	Seed uint64

	// KillAfterUnits terminates a fabric worker after it completes that
	// many work units (0 = never).
	KillAfterUnits int
	// StallUnit sleeps for Stall before the worker executes its Nth unit
	// (0 = never).
	StallUnit int
	// Stall is the stall-worker duration.
	Stall time.Duration
	// TornLease truncates the Nth lease file this process publishes
	// (0 = never).
	TornLease int
	// ClockSkew offsets the process's wall clock; the fabric's deadline
	// checks then disagree with its peers' by this much.
	ClockSkew time.Duration

	puts atomic.Int64
	// admitted counts Puts past BeforePut, so kill-after-puts can hold
	// back every Put beyond the Nth (see BeforePut).
	admitted    atomic.Int64
	leaseWrites atomic.Int64
	// exit is swapped out by tests; os.Exit in production.
	exit func(code int)
}

var _ checkpoint.Hooks = (*Plan)(nil)

// Parse builds a Plan from a spec string (see the package doc). An empty
// spec returns nil: no plan, no hooks.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, exit: os.Exit}
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: want key=value", clause)
		}
		switch key {
		case "kill-after-puts", "fail-put", "torn-put", "corrupt-put", "seed",
			"kill-worker-after-units", "torn-lease":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: %s=%q: want a non-negative integer", key, val)
			}
			switch key {
			case "kill-after-puts":
				p.KillAfterPuts = n
			case "fail-put":
				p.FailPut = n
			case "torn-put":
				p.TornPut = n
			case "corrupt-put":
				p.CorruptPut = n
			case "seed":
				p.Seed = uint64(n)
			case "kill-worker-after-units":
				p.KillAfterUnits = n
			case "torn-lease":
				p.TornLease = n
			}
		case "stall-worker":
			nth, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: stall-worker=%q: want N:duration", val)
			}
			n, err := strconv.Atoi(nth)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: stall-worker=%q: bad unit index", val)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: stall-worker=%q: %v", val, err)
			}
			p.StallUnit, p.Stall = n, d
		case "clock-skew":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("faultinject: clock-skew=%q: %v", val, err)
			}
			p.ClockSkew = d
		case "delay-put":
			nth, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("faultinject: delay-put=%q: want N:duration", val)
			}
			n, err := strconv.Atoi(nth)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultinject: delay-put=%q: bad put index", val)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: delay-put=%q: %v", val, err)
			}
			p.DelayPut, p.Delay = n, d
		default:
			return nil, fmt.Errorf("faultinject: unknown fault %q", key)
		}
	}
	return p, nil
}

// BeforePut implements checkpoint.Hooks: the fail-put and delay-put faults,
// and the admission side of kill-after-puts. The process exits once the Nth
// Put lands, but with concurrent workers another Put could publish while
// that one is still in flight, leaving N+1 checkpoints behind. So a Put
// beyond the Nth never starts: it waits here for the exit, and the crash
// always leaves exactly N checkpoints.
func (p *Plan) BeforePut(m checkpoint.Meta) error {
	if p.KillAfterPuts > 0 && int(p.admitted.Add(1)) > p.KillAfterPuts {
		select {}
	}
	n := int(p.puts.Load()) + 1 // the Put now in progress
	if p.DelayPut == n && p.Delay > 0 {
		time.Sleep(p.Delay)
	}
	if p.FailPut == n {
		p.puts.Add(1) // the failed attempt still advances the counter
		return fmt.Errorf("faultinject: injected write failure at put %d (%s shard %d)",
			n, m.Experiment, m.Shard)
	}
	return nil
}

// AfterPut implements checkpoint.Hooks: the torn-put, corrupt-put, and
// kill-after-puts faults, in that order — a plan may tear a file and then
// kill the process, the exact shape of a crash during a write burst.
func (p *Plan) AfterPut(m checkpoint.Meta, path string) {
	n := int(p.puts.Add(1))
	if p.TornPut == n {
		p.tear(path)
	}
	if p.CorruptPut == n {
		p.corrupt(path)
	}
	if p.KillAfterPuts > 0 && n >= p.KillAfterPuts {
		fmt.Fprintf(os.Stderr, "faultinject: killing process after %d checkpoint puts\n", n)
		p.exit(KillExitCode)
	}
}

// Puts returns the number of Put attempts observed so far.
func (p *Plan) Puts() int { return int(p.puts.Load()) }

// StallBeforeUnit is the stall-worker fault, wired to the fabric worker's
// BeforeUnit hook: it sleeps before the worker executes its Nth claimed
// unit, with renewals not yet running — the lease ages out naturally and
// the coordinator re-dispatches the unit while this worker is asleep.
func (p *Plan) StallBeforeUnit(n int) {
	if p.StallUnit == n && p.Stall > 0 {
		fmt.Fprintf(os.Stderr, "faultinject: stalling worker for %v before unit %d\n", p.Stall, n)
		time.Sleep(p.Stall)
	}
}

// KillAfterUnit is the kill-worker-after-units fault, wired to the fabric
// worker's AfterUnit hook: the process dies with KillExitCode after
// durably completing its Nth unit, leaving its remaining leases to expire.
func (p *Plan) KillAfterUnit(n int) {
	if p.KillAfterUnits > 0 && n >= p.KillAfterUnits {
		fmt.Fprintf(os.Stderr, "faultinject: killing worker after %d completed units\n", n)
		p.exit(KillExitCode)
	}
}

// AfterLeaseWrite is the torn-lease fault, wired to the fabric's
// post-publish lease hook: the Nth lease file this process writes
// (dispatch, renewal, or heartbeat) is truncated in place. The fabric must
// read it as absent and recover by re-leasing.
func (p *Plan) AfterLeaseWrite(path string) {
	n := int(p.leaseWrites.Add(1))
	if p.TornLease == n {
		fmt.Fprintf(os.Stderr, "faultinject: tearing lease write %d (%s)\n", n, path)
		p.tear(path)
	}
}

// LeaseWrites returns the number of lease publishes observed so far.
func (p *Plan) LeaseWrites() int { return int(p.leaseWrites.Load()) }

// tear truncates the published checkpoint to half its size, the on-disk
// shape of a write interrupted between temp-file creation and completion
// on a filesystem without atomic rename (or of a buggy writer).
func (p *Plan) tear(path string) {
	st, err := os.Stat(path)
	if err != nil {
		return
	}
	//lint:ignore errcheck-io deliberate damage: the fault is best-effort by design
	os.Truncate(path, st.Size()/2)
}

// corrupt flips one bit at a Seed-chosen offset, simulating media
// corruption that leaves the file length intact.
func (p *Plan) corrupt(path string) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return
	}
	src := rng.New(p.Seed ^ 0xfa017)
	data[src.Intn(len(data))] ^= 1 << src.Intn(8)
	// Deliberately a direct, non-atomic write: the point is to damage the
	// file the way a real fault would.
	//lint:ignore atomicwrite deliberate corruption injection; atomicity would defeat the fault
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return
	}
}
