// Command perfbench is randfill's end-to-end and per-layer benchmark. It
// runs one workload — registered experiments called through
// experiments.ByName(name).Run, as cmd/experiments calls them — and prints
// its metrics by name and unit, ending with one JSON result line.
//
//	perfbench -workload security|spec|matrix -seed N -seconds S -trace 0|1
//	perfbench -workload W -record      re-record W's committed digest
//	perfbench compare BASE HEAD        compare result records (file or dir)
//
// With -trace 0 it reports the end-to-end metrics: each run in a window of
// S seconds is measured and the median is reported. With -trace 1 it runs
// the workload untraced, traced and through the counter pass, and reports
// the per-layer metrics. Either way the tables of the default seed are
// checked against the committed digest. README.md has the details; run.py
// builds this command and runs it.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"experiments.units", "count"},
	{"experiments.unit_ms_p50", "ms"},
	{"experiments.unit_ms_tail", "ms"},
	{"experiments.worker_idle_frac", "frac"},
	{"checkpoint.puts", "count"},
	{"checkpoint.put_ms_p50", "ms"},
	{"checkpoint.put_bytes", "bytes"},
	{"checkpoint.gets", "count"},
	{"checkpoint.get_ms_p50", "ms"},
	{"checkpoint.resume_s", "s"},
	{"attacks.busy_frac", "frac"},
	{"attacks.samples", "count"},
	{"attacks.ns_per_sample", "ns"},
	{"infotheory.busy_frac", "frac"},
	{"infotheory.trials", "count"},
	{"infotheory.ns_per_trial", "ns"},
	{"aes.busy_frac", "frac"},
	{"aes.blocks", "count"},
	{"workloads.busy_frac", "frac"},
	{"workloads.accesses", "count"},
	{"trace.busy_frac", "frac"},
	{"trace.words", "count"},
	{"trace.ns_per_word", "ns"},
	{"sim.busy_frac", "frac"},
	{"sim.accesses", "count"},
	{"sim.ns_per_access", "ns"},
	{"sim.batch_accesses", "count"},
	{"sim.step_accesses", "count"},
	{"hierarchy.busy_frac", "frac"},
	{"hierarchy.l2_accesses", "count"},
	{"hierarchy.l2_miss_ratio", "frac"},
	{"hierarchy.mem_accesses", "count"},
	{"core.busy_frac", "frac"},
	{"core.window_draws", "count"},
	{"core.fill_useful_ratio", "frac"},
	{"cache.busy_frac", "frac"},
	{"cache.l1_accesses", "count"},
	{"cache.l1_miss_ratio", "frac"},
	{"cache.evictions", "count"},
	{"securecache.busy_frac", "frac"},
	{"rng.busy_frac", "frac"},
	{"runtime.gc_frac", "frac"},
	{"unattributed_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line settings.
type options struct {
	workload workload
	seed     uint64
	window   time.Duration
	trace    bool
	workdir  string
	digests  string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: security, spec or matrix")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	secs := fs.Int("seconds", 10, "length of the measurement window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores, traces and result records")
	digests := fs.String("digests", filepath.Join("_perfbench", "digests.json"), "committed digest file")
	record := fs.Bool("record", false, "re-record the workload's digest at the default seed, then exit")
	probe := fs.Bool("probe", false, "set-up probe: initialise, print ready and exit (used by the set-up measurement)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	o := options{w, *seed, time.Duration(*secs) * time.Second, *trace == 1, *workdir, *digests}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()
	switch {
	case *probe:
		err = probeMain(w, o.seed, o.workdir, stdout)
	case *record:
		err = recordDigest(ctx, o, stdout)
	default:
		err = bench(ctx, o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// digest is the SHA-256 of a workload's rendered tables.
func digest(out string) string {
	sum := sha256.Sum256([]byte(out))
	return "sha256:" + hex.EncodeToString(sum[:])
}

func loadDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := map[string]string{}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// defaultPass runs the workload at the default seed, the run the committed
// digest covers.
func defaultPass(ctx context.Context, o options) (string, error) {
	sc := o.workload.scaleFor(defaultSeed)
	if o.workload.checkpointed {
		store, err := freshStore(filepath.Join(o.workdir, "store"))
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(store.Dir())
		sc.Checkpoint = store
	}
	p := o.workload.runPass(ctx, sc)
	if p.err != nil {
		return "", p.err
	}
	return digest(p.out), nil
}

// checkDigest compares the default seed's tables with the committed digest.
func checkDigest(ctx context.Context, o options) error {
	want, err := loadDigests(o.digests)
	if err != nil {
		return err
	}
	got, err := defaultPass(ctx, o)
	if err != nil {
		return err
	}
	if want[o.workload.name] != got {
		return fmt.Errorf("digest of %s at seed %d is %s, committed %s",
			o.workload.name, defaultSeed, got, want[o.workload.name])
	}
	return nil
}

// recordDigest deliberately re-records the workload's digest.
func recordDigest(ctx context.Context, o options, stdout io.Writer) error {
	d, err := loadDigests(o.digests)
	if errors.Is(err, os.ErrNotExist) {
		d, err = map[string]string{}, nil
	}
	if err != nil {
		return err
	}
	if d[o.workload.name], err = defaultPass(ctx, o); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.digests, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s %s\n", o.workload.name, d[o.workload.name])
	return nil
}

// bench runs the untraced or the traced benchmark and prints the result.
func bench(ctx context.Context, o options, stdout, stderr io.Writer) error {
	h := fingerprint()
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", hj)
	fmt.Fprintf(stdout, "workload %s seed %d workers %d: %s\n", o.workload.name, o.seed, h.Workers, o.workload.why)
	fmt.Fprintln(stdout, "model: unvalidated (the repository holds no reference-hardware results), so no model error is reported")

	var vals map[string]float64
	var defs []metricDef
	var attempted int
	var failures []string
	if o.trace {
		defs = perLayer
		var tr traced
		tr, attempted, failures = tracedRun(ctx, o.workload, o.seed, o.workdir)
		if len(failures) == 0 {
			vals = layerMetrics(o.workload, tr)
			path, err := writeTrace(o.workdir, o.workload, o.seed, h, tr)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "spans and folded profile: %s\n", path)
		}
	} else {
		defs = endToEnd
		vals, attempted, failures, err = untracedRun(ctx, o, stdout)
		if err != nil {
			return err
		}
	}

	attempted++
	if err := checkDigest(ctx, o); err != nil {
		failures = append(failures, err.Error())
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "perfbench: FAILED:", f)
	}
	if vals == nil {
		return fmt.Errorf("no run completed")
	}

	res := result{
		Correct:   len(failures) == 0,
		Attempted: attempted,
		Failed:    len(failures),
		Metrics:   map[string]metric{},
	}
	printMetric := func(name string, v float64, unit string) {
		fmt.Fprintf(stdout, "  %-30s %16.10g %s\n", name, v, unit)
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		printMetric(d.name, vals[d.name], d.unit)
	}
	// failed_frac and resume_s are end-to-end metrics too, printed but kept
	// out of the result line: failed_frac is the line's failed/attempted,
	// and resume_s exists only on a checkpointed workload (README.md).
	printMetric("failed_frac", float64(res.Failed)/float64(res.Attempted), "frac")
	if v, ok := vals["resume_s"]; ok {
		printMetric("resume_s", v, "s")
	}
	fmt.Fprintf(stdout, "failed %d of %d attempted\n", res.Failed, res.Attempted)
	trace := 0
	if o.trace {
		trace = 1
	}
	if err := writeRecord(o.workdir, record{h, o.workload.name, o.seed, trace, res}); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// untracedRun measures set-up and a window of timed runs and returns the
// end-to-end metrics: medians over the runs.
func untracedRun(ctx context.Context, o options, stdout io.Writer) (map[string]float64, int, []string, error) {
	setups, err := probeSetup(o.workload, o.seed, o.workdir, setupProbes)
	if err != nil {
		return nil, 0, nil, err
	}
	runs := timedRuns(ctx, o.workload, o.seed, o.window, o.workdir)
	var failures []string
	var wall, cpu, alloc, peak, resume []float64
	for k, r := range runs {
		if r.err != nil {
			failures = append(failures, fmt.Sprintf("run %d (seed %d): %v", k, runSeed(o.seed, k), r.err))
			continue
		}
		wall = append(wall, r.usage.wall.Seconds())
		cpu = append(cpu, r.usage.cpu.Seconds())
		alloc = append(alloc, float64(r.usage.allocBytes)/1e6)
		peak = append(peak, float64(r.usage.peakHeapBytes)/1e6)
		resume = append(resume, r.resume.Seconds())
	}
	if len(wall) == 0 {
		return nil, len(runs), failures, nil
	}
	fmt.Fprintf(stdout, "medians of %d timed runs and %d set-up probes; wall_s of each run: %.4g\n", len(wall), len(setups), wall)
	vals := map[string]float64{
		"wall_s":       median(wall),
		"cpu_s":        median(cpu),
		"setup_s":      median(seconds(setups)),
		"alloc_mb":     median(alloc),
		"peak_heap_mb": median(peak),
	}
	if o.workload.checkpointed {
		vals["resume_s"] = median(resume)
	}
	return vals, len(runs), failures, nil
}

// compareMain compares two sets of result records.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] BASE HEAD")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	head, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	ok, err := compare(base, head, spec, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}
