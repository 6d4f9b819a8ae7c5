// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run NAME|all] [-scale quick|full] [flags]
//
// Each experiment prints the rows the corresponding table or figure in the
// paper reports. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// -list prints the registered experiments. Every one is a fixed plan of
// independent work units, so every one runs the same way in each mode
// below.
//
// Long runs are crash-safe: with -checkpoint-dir every completed work unit
// is flushed to disk the moment it finishes, and -resume loads those units
// instead of re-running them — the resumed output is byte-identical to an
// uninterrupted run at any -workers value. The store keeps the first frame
// written for a unit: rerunning without -resume into a store that holds
// different bytes for the same unit fails (exit 1) instead of overwriting.
// The first SIGINT or SIGTERM cancels cooperatively (in-flight units finish
// and flush); a second exits immediately, leaving best-effort aborted
// markers so fabric workers take the units that were in flight first.
//
// Multi-process runs distribute one experiment's work units across worker
// processes over a shared fabric directory (internal/fabric;
// no network — the filesystem is the bus):
//
//	experiments -role coordinator -fabric-dir F -run PolicyMatrix -fabric-spawn 4
//	experiments -role worker      -fabric-dir F -run PolicyMatrix   # more, any time
//
// Workers schedule themselves, claiming one unit at a time through claim
// files; a claim that expires (its worker died or stalled) is taken over by
// another worker. The coordinator waits for every unit's checkpoint, counts
// the lost claims as re-dispatches, and renders the final table from the
// checkpoint store — byte-identical to a single-process run no matter how
// many workers ran, died, or re-ran a unit. The fabric flags (-fabric-dir,
// -fabric-spawn, -worker-id, -lease-ttl, -fabric-poll, -worker-idle-exit)
// are a usage error without -role. -join merges the checkpoint stores of
// partial runs into -checkpoint-dir and renders from the merged store, with
// the same byte-identity guarantee.
//
// Exit codes: 0 success; 1 experiment failure, including a checkpoint whose
// unit the store already holds with different bytes; 2 usage error;
// 3 interrupted by a signal (completed units were flushed if
// -checkpoint-dir was set); 4 -timeout deadline exceeded (same flush
// guarantee); 5 fabric coordinator refused — another live coordinator
// holds the fabric directory; 130 hard exit on a second signal; 137
// fault-injected kill (-fault-plan, crash tests only).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/experiments"
	"randfill/internal/fabric"
	"randfill/internal/faultinject"
	"randfill/internal/profiling"
)

func main() { os.Exit(run()) }

// usage prints a flag error and returns the usage exit code.
func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	return 2
}

func run() int {
	runFlag := flag.String("run", "all", "experiment to run (-list shows the registry) or 'all'")
	scale := flag.String("scale", "quick", "budget scale: quick or full")
	seed := flag.Uint64("seed", 0, "override the random seed (0 = scale default)")
	attackCap := flag.Int("attack-cap", 0, "override the Table3 measurements-to-success cap")
	mcTrials := flag.Int("mc-trials", 0, "override the Table3 Monte Carlo trial count")
	workers := flag.Int("workers", 0, "parallel workers per experiment (0 = GOMAXPROCS); output is byte-identical for any value")
	list := flag.Bool("list", false, "list available experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	ckptDir := flag.String("checkpoint-dir", "", "flush each completed work unit to this directory")
	resume := flag.Bool("resume", false, "load completed units from -checkpoint-dir instead of re-running them")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none); on expiry completed units are already flushed")
	faultPlan := flag.String("fault-plan", "", "fault-injection plan for crash testing, e.g. 'kill-after-puts=3' (see internal/faultinject)")
	role := flag.String("role", "", "fabric role: coordinator or worker (requires -fabric-dir and a single -run experiment)")
	fabricDir := flag.String("fabric-dir", "", "shared fabric directory for multi-process runs (see internal/fabric)")
	workerID := flag.String("worker-id", "", "this worker's id (default worker-<pid>)")
	fabricSpawn := flag.Int("fabric-spawn", 0, "coordinator convenience: spawn this many worker subprocesses of this binary (at most the experiment's unit count)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fabric claim and lease duration; a worker silent this long is presumed dead")
	fabricPoll := flag.Duration("fabric-poll", 200*time.Millisecond, "fabric scan/claim interval")
	idleExit := flag.Duration("worker-idle-exit", time.Minute, "worker exits cleanly after this long with every unfinished unit claimed by others (0 = wait forever)")
	joinSrcs := flag.String("join", "", "comma-separated checkpoint or fabric dirs to merge into -checkpoint-dir, then render from the merged store")
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.Name, e.Description)
		}
		return 0
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"mc-trials", *mcTrials}, {"attack-cap", *attackCap}, {"workers", *workers}, {"fabric-spawn", *fabricSpawn}} {
		if f.v < 0 {
			return usage("-%s %d: must not be negative", f.name, f.v)
		}
	}
	if *leaseTTL < fabric.MinTTL {
		return usage("-lease-ttl %v: must be at least %v (claims renew every TTL/3)", *leaseTTL, fabric.MinTTL)
	}
	if *fabricPoll <= 0 {
		return usage("-fabric-poll %v: must be positive", *fabricPoll)
	}

	var sc experiments.Scale
	switch strings.ToLower(*scale) {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		return usage("unknown scale %q (want quick or full)", *scale)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *attackCap != 0 {
		sc.AttackMaxSamples = *attackCap
	}
	if *mcTrials != 0 {
		sc.MonteCarloTrials = *mcTrials
	}
	sc.Workers = *workers

	var plan *faultinject.Plan
	if *faultPlan != "" {
		p, err := faultinject.Parse(*faultPlan)
		if err != nil {
			return usage("%v", err)
		}
		plan = p
	}

	// Resolve the run mode up front so the signal handler knows where
	// best-effort aborted markers belong.
	if *role != "" && *role != "coordinator" && *role != "worker" {
		return usage("unknown -role %q (want coordinator or worker)", *role)
	}
	if *role == "" {
		// Only flags given on the command line count, so the defaults of
		// -lease-ttl, -fabric-poll and -worker-idle-exit never trip this.
		var fabricOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fabric-dir", "fabric-spawn", "worker-id", "lease-ttl", "fabric-poll", "worker-idle-exit":
				fabricOnly = append(fabricOnly, "-"+f.Name)
			}
		})
		if len(fabricOnly) > 0 {
			return usage("%s: fabric flags need -role coordinator or -role worker", strings.Join(fabricOnly, ", "))
		}
	}
	if *role != "" {
		if *fabricDir == "" {
			return usage("-role %s requires -fabric-dir", *role)
		}
		if *ckptDir != "" || *resume || *joinSrcs != "" {
			return usage("-role uses <fabric-dir>/ckpt as its store; -checkpoint-dir, -resume, and -join do not combine with it")
		}
		p, ok := experiments.PlanFor(*runFlag, sc)
		if !ok {
			return usage("-role requires a single -run experiment (-list shows the registry); got %q", *runFlag)
		}
		if *fabricSpawn > p.Units {
			return usage("-fabric-spawn %d: %s has only %d work units", *fabricSpawn, p.Name, p.Units)
		}
	}
	if *ckptDir == "" {
		if *resume {
			return usage("-resume requires -checkpoint-dir")
		}
		if *joinSrcs != "" {
			return usage("-join requires -checkpoint-dir (the destination store)")
		}
		if *faultPlan != "" && *role == "" {
			return usage("-fault-plan requires -checkpoint-dir (it injects faults at checkpoint writes)")
		}
	} else {
		store, err := checkpoint.Open(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		if plan != nil {
			store.Hooks = plan
		}
		sc.Checkpoint = store
		sc.Resume = *resume
	}

	procID := *workerID
	if procID == "" {
		procID = fmt.Sprintf("%s-%d", orSolo(*role), os.Getpid())
	}
	// abortStoreDir is where the hard-kill path leaves aborted markers: the
	// fabric's shared store for fabric roles, -checkpoint-dir otherwise.
	abortStoreDir := *ckptDir
	if *role != "" {
		abortStoreDir = fabric.Layout{Root: *fabricDir}.CheckpointDir()
	}
	tracker := fabric.NewInFlight(procID)
	if sc.Checkpoint != nil {
		sc.Track = tracker.Observe
	}

	var todo []experiments.Experiment
	if strings.EqualFold(*runFlag, "all") {
		todo = experiments.All()
	} else {
		e, ok := experiments.ByName(*runFlag)
		if !ok {
			return usage("unknown experiment %q; -list shows the registry", *runFlag)
		}
		todo = []experiments.Experiment{e}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	// First signal: cancel cooperatively — workers stop claiming new units,
	// units already running finish and flush their checkpoints, and the run
	// exits 3. Second signal: exit immediately, leaving best-effort aborted
	// markers for the units in flight so fabric workers run them first.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "experiments: received %v; finishing in-flight work and flushing checkpoints (signal again to exit immediately)\n", s)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "experiments: second signal, exiting immediately")
		tracker.WriteAborted(abortStoreDir)
		os.Exit(130)
	}()

	switch *role {
	case "worker":
		return runFabricWorker(ctx, sc, *runFlag, *fabricDir, procID,
			*leaseTTL, *fabricPoll, *idleExit, plan, tracker)
	case "coordinator":
		var spawnArgs []string
		if *fabricSpawn > 0 {
			spawnArgs = []string{
				"-role", "worker", "-fabric-dir", *fabricDir, "-run", *runFlag,
				"-scale", *scale,
				"-seed", fmt.Sprint(sc.Seed),
				"-attack-cap", fmt.Sprint(*attackCap),
				"-mc-trials", fmt.Sprint(*mcTrials),
				"-workers", fmt.Sprint(*workers),
				"-lease-ttl", leaseTTL.String(),
				"-fabric-poll", fabricPoll.String(),
				"-worker-idle-exit", idleExit.String(),
			}
		}
		return runFabricCoordinator(ctx, sc, *runFlag, *fabricDir, procID,
			*leaseTTL, *fabricPoll, plan, *fabricSpawn, spawnArgs)
	}

	if *joinSrcs != "" {
		rep, err := fabric.Join(sc.Checkpoint, strings.Split(*joinSrcs, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "experiments: join: %d adopted, %d already present, %d torn skipped\n",
			rep.Adopted, rep.AlreadyPresent, rep.TornSkipped)
		// Render from the merged store: with every unit present this
		// restores rather than recomputes, and the output is byte-identical
		// to an uninterrupted single-process run.
		sc.Resume = true
	}

	return runSolo(ctx, sc, todo)
}

// runSolo is the original single-process flow: run each requested
// experiment and print its table.
func runSolo(ctx context.Context, sc experiments.Scale, todo []experiments.Experiment) int {
	note := ""
	if sc.Checkpoint != nil {
		note = "; completed units are flushed to " + sc.Checkpoint.Dir() + " — rerun with -resume to continue"
	}
	for _, e := range todo {
		//lint:ignore detrand wall-clock progress display only; never feeds simulator or experiment state
		start := time.Now()
		t, err := e.Run(ctx, sc)
		if err != nil {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				fmt.Fprintf(os.Stderr, "experiments: %s: deadline exceeded, results are partial%s\n", e.Name, note)
				return 4
			case errors.Is(err, context.Canceled):
				fmt.Fprintf(os.Stderr, "experiments: %s: interrupted, results are partial%s\n", e.Name, note)
				return 3
			default:
				fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
				return 1
			}
		}
		fmt.Println(t)
		// The timing footer goes to stderr so stdout carries exactly the
		// tables: resume tests byte-compare stdout across runs.
		//lint:ignore detrand wall-clock progress display only; never feeds simulator or experiment state
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// orSolo names the process for in-flight tracking: the fabric role when
// set, "solo" otherwise.
func orSolo(role string) string {
	if role == "" {
		return "solo"
	}
	return role
}

// fabricPlan returns the experiment's work-unit plan and opens the fabric's
// shared checkpoint store.
func fabricPlan(name string, sc experiments.Scale, dir string) (fabric.Plan, *checkpoint.Store, error) {
	layout := fabric.Layout{Root: dir}
	if err := layout.Prepare(); err != nil {
		return fabric.Plan{}, nil, err
	}
	store, err := checkpoint.Open(layout.CheckpointDir())
	if err != nil {
		return fabric.Plan{}, nil, err
	}
	p, ok := experiments.PlanFor(name, sc)
	if !ok {
		return fabric.Plan{}, nil, fmt.Errorf("no work-unit plan for %q", name)
	}
	return p, store, nil
}

// runFabricWorker claims and executes units until every unit is
// checkpointed (or the worker idles out). It writes nothing to stdout: the
// coordinator owns the rendered table.
func runFabricWorker(ctx context.Context, sc experiments.Scale, name, dir, id string,
	ttl, poll, idle time.Duration, plan *faultinject.Plan, tracker *fabric.InFlight) int {
	fp, store, err := fabricPlan(name, sc, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: worker %s: %v\n", id, err)
		return 1
	}
	cfg := fabric.WorkerConfig{
		Dir: dir, ID: id, Plan: fp, Store: store,
		TTL: ttl, Poll: poll, IdleExit: idle,
		Track: tracker, Log: os.Stderr,
	}
	if plan != nil {
		store.Hooks = plan
		cfg.BeforeUnit = plan.StallBeforeUnit
		cfg.AfterUnit = plan.KillAfterUnit
		cfg.AfterClaimWrite = plan.AfterLeaseWrite
		if plan.ClockSkew != 0 {
			cfg.Clock = fabric.SkewedClock(plan.ClockSkew)
		}
	}
	res, err := fabric.RunWorker(ctx, cfg)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "experiments: worker %s: %d units completed\n", id, res.Completed)
		return 0
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "experiments: worker %s: deadline exceeded\n", id)
		return 4
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "experiments: worker %s: interrupted\n", id)
		return 3
	default:
		fmt.Fprintf(os.Stderr, "experiments: worker %s: %v\n", id, err)
		return 1
	}
}

// runFabricCoordinator holds the fabric directory while workers, optionally
// spawned as subprocesses of this same binary, run the experiment's units,
// and renders the final table from the shared store once every unit is
// checkpointed — byte-identical to a single-process run.
func runFabricCoordinator(ctx context.Context, sc experiments.Scale, name, dir, id string,
	ttl, poll time.Duration, plan *faultinject.Plan, spawn int, spawnArgs []string) int {
	fp, store, err := fabricPlan(name, sc, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: %v\n", id, err)
		return 1
	}
	cfg := fabric.CoordinatorConfig{
		Dir: dir, ID: id, Plan: fp, Store: store,
		TTL: ttl, Poll: poll, Log: os.Stderr,
	}
	if plan != nil {
		cfg.AfterClaimWrite = plan.AfterLeaseWrite
		if plan.ClockSkew != 0 {
			cfg.Clock = fabric.SkewedClock(plan.ClockSkew)
		}
	}

	var kids []*exec.Cmd
	if spawn > 0 {
		bin, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: coordinator %s: %v\n", id, err)
			return 1
		}
		for i := 0; i < spawn; i++ {
			args := append([]string{}, spawnArgs...)
			args = append(args, "-worker-id", fmt.Sprintf("%s-w%d", id, i))
			kid := exec.CommandContext(ctx, bin, args...)
			kid.Stderr = os.Stderr
			if err := kid.Start(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: coordinator %s: spawn worker %d: %v\n", id, i, err)
				return 1
			}
			kids = append(kids, kid)
		}
	}
	reap := func() {
		for _, kid := range kids {
			if err := kid.Wait(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: coordinator %s: worker %d: %v\n",
					id, kid.Process.Pid, err)
			}
		}
	}

	res, err := fabric.RunCoordinator(ctx, cfg)
	switch {
	case err == nil:
		// Every unit is checkpointed, so the workers exit on their own.
	case errors.Is(err, fabric.ErrCoordinatorHeld):
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: %v\n", id, err)
		reap()
		return 5
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: deadline exceeded; completed units are flushed in %s\n", id, store.Dir())
		reap()
		return 4
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: interrupted; completed units are flushed in %s\n", id, store.Dir())
		reap()
		return 3
	default:
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: %v\n", id, err)
		reap()
		return 1
	}
	fmt.Fprintf(os.Stderr, "experiments: coordinator %s: %d units checkpointed (%d re-dispatched)\n",
		id, fp.Units, res.Redispatched)
	reap()

	// Every unit is checkpointed: render by restoring from the shared store.
	e, ok := experiments.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: unknown experiment %q\n", id, name)
		return 1
	}
	scR := sc
	scR.Checkpoint = store
	scR.Resume = true
	scR.Track = nil
	t, err := e.Run(ctx, scR)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: coordinator %s: render: %v\n", id, err)
		return 1
	}
	fmt.Println(t)
	return 0
}
