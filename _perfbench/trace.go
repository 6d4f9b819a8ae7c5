package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"randfill/internal/checkpoint"
)

// putTimer times checkpoint puts through the store's hooks: a span from
// BeforePut to AfterPut, under the unit's Track span.
type putTimer struct {
	rec   *recorder
	mu    sync.Mutex
	open  map[int]int // unit shard -> open put span
	units map[int]int // unit shard -> open unit span
	bytes int64
}

func (p *putTimer) BeforePut(m checkpoint.Meta) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.open[m.Shard] = p.rec.begin(p.units[m.Shard], "checkpoint.Store.Put")
	return nil
}

func (p *putTimer) AfterPut(m checkpoint.Meta, path string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rec.end(p.open[m.Shard])
	if fi, err := os.Stat(path); err == nil {
		p.bytes += fi.Size()
	}
}

// track records a span per work unit from Scale.Track.
func (p *putTimer) track(m checkpoint.Meta, done bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !done {
		p.units[m.Shard] = p.rec.begin(0, "experiments.unit")
		return
	}
	p.rec.end(p.units[m.Shard])
}

// traced is everything a traced run measured.
type traced struct {
	untraced, profiled usage
	resume             time.Duration
	putBytes           int64
	profiledSpans      []span
	counterSpans       []span
	counts             counts
	buckets            map[string]int64
}

// tracedRun runs the workload three times at seed: untraced, traced (with a
// CPU profile, Track unit spans and checkpoint put spans), and the counter
// pass. The traced run's tables must equal the untraced run's byte for
// byte: telemetry is write-only. failures lists what went wrong.
func tracedRun(ctx context.Context, w workload, seed uint64, dir string) (tr traced, attempted int, failures []string) {
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	storeDir := filepath.Join(dir, "store")
	defer os.RemoveAll(storeDir)

	attempted++
	sc := w.scaleFor(seed)
	if w.checkpointed {
		store, err := freshStore(storeDir)
		if err != nil {
			fail("untraced pass: %v", err)
			return
		}
		sc.Checkpoint = store
	}
	base := w.runPass(ctx, sc)
	if base.err != nil {
		fail("untraced pass: %v", base.err)
		return
	}
	tr.untraced = base.usage

	attempted++
	rec := newRecorder()
	pt := &putTimer{rec: rec, open: map[int]int{}, units: map[int]int{}}
	sc = w.scaleFor(seed)
	sc.Track = pt.track
	var store *checkpoint.Store
	if w.checkpointed {
		var err error
		if store, err = freshStore(storeDir); err != nil {
			fail("traced pass: %v", err)
			return
		}
		store.Hooks = pt
		sc.Checkpoint = store
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fail("traced pass: %v", err)
		return
	}
	p := w.runPass(ctx, sc)
	pprof.StopCPUProfile()
	switch {
	case p.err != nil:
		fail("traced pass: %v", p.err)
		return
	case p.out != base.out:
		fail("traced pass rendered different tables than the untraced pass")
	}
	tr.profiled, tr.resume, tr.putBytes = p.usage, p.resume, pt.bytes
	tr.profiledSpans = rec.finish()
	if w.units > 0 {
		if n := countNamed(tr.profiledSpans, "experiments.unit"); n != w.units {
			fail("Scale.Track saw %d units, want %d", n, w.units)
		}
	}
	var err error
	if tr.buckets, err = foldProfile(prof.Bytes()); err != nil {
		fail("%v", err)
	}

	attempted++
	crec := newRecorder()
	if store != nil {
		store.Hooks = nil
	}
	if tr.counts, err = countPass(ctx, w, crec, sc, p.tables, store); err != nil {
		fail("counter pass: %v", err)
	}
	tr.counterSpans = crec.finish()
	return tr, attempted, failures
}

func countNamed(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// durations returns the durations of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfNanos sums the self time of the spans whose name has prefix.
func selfNanos(spans []span, prefix string) float64 {
	var t time.Duration
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			t += s.Self
		}
	}
	return float64(t)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func maxOr0(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// busyBuckets are the layers whose CPU share is reported as <layer>.busy_frac.
var busyBuckets = []string{"attacks", "infotheory", "aes", "workloads", "trace", "sim",
	"hierarchy", "core", "cache", "securecache", "rng"}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(w workload, tr traced) map[string]float64 {
	const ms = float64(time.Millisecond)
	c := tr.counts
	units := tr.profiledSpans
	if w.units == 0 {
		units = tr.counterSpans
	}
	unitNs := durations(units, "experiments.unit")
	puts := durations(tr.profiledSpans, "checkpoint.Store.Put")
	gets := durations(tr.counterSpans, "checkpoint.Store.Get")
	accesses := c.batchAccesses + c.stepAccesses
	var total int64
	for _, v := range tr.buckets {
		total += v
	}
	frac := func(b string) float64 { return ratio(float64(tr.buckets[b]), float64(total)) }

	m := map[string]float64{
		"experiments.units":            float64(len(unitNs)),
		"experiments.unit_ms_p50":      medianOr0(unitNs) / ms,
		"experiments.unit_ms_tail":     maxOr0(unitNs) / ms,
		"experiments.worker_idle_frac": max(0, 1-ratio(tr.profiled.cpu.Seconds(), float64(benchWorkers())*tr.profiled.wall.Seconds())),
		"checkpoint.puts":              float64(len(puts)),
		"checkpoint.put_ms_p50":        medianOr0(puts) / ms,
		"checkpoint.put_bytes":         float64(tr.putBytes),
		"checkpoint.gets":              float64(len(gets)),
		"checkpoint.get_ms_p50":        medianOr0(gets) / ms,
		"checkpoint.resume_s":          tr.resume.Seconds(),
		"attacks.samples":              float64(c.attackSamples),
		"attacks.ns_per_sample":        ratio(selfNanos(tr.counterSpans, "attacks."), float64(c.attackSamples)),
		"infotheory.trials":            float64(c.infoTrials),
		"infotheory.ns_per_trial":      ratio(selfNanos(tr.counterSpans, "infotheory."), float64(c.infoTrials)),
		"aes.blocks":                   float64(c.aesBlocks),
		"workloads.accesses":           float64(c.genAccesses),
		"trace.words":                  float64(c.traceWords),
		"trace.ns_per_word":            ratio(selfNanos(tr.counterSpans, "trace."), float64(c.traceWords)),
		"sim.accesses":                 float64(accesses),
		"sim.ns_per_access":            ratio(selfNanos(tr.counterSpans, "sim.RunCompiled")+selfNanos(tr.counterSpans, "sim.Step"), float64(accesses)),
		"sim.batch_accesses":           float64(c.batchAccesses),
		"sim.step_accesses":            float64(c.stepAccesses),
		"hierarchy.l2_accesses":        float64(c.l2Accesses),
		"hierarchy.l2_miss_ratio":      ratio(float64(c.l2Misses), float64(c.l2Accesses)),
		"hierarchy.mem_accesses":       float64(c.memAccesses),
		"core.window_draws":            float64(c.windowDraws),
		"core.fill_useful_ratio":       ratio(float64(c.fillsIssued), float64(c.windowDraws)),
		"cache.l1_accesses":            float64(c.l1Accesses),
		"cache.l1_miss_ratio":          ratio(float64(c.l1Misses), float64(c.l1Accesses)),
		"cache.evictions":              float64(c.l1Evictions),
		"runtime.gc_frac":              frac(bucketGC),
		"unattributed_frac":            frac(bucketUnattributed),
		"bench.trace_overhead_frac":    ratio(tr.profiled.wall.Seconds(), tr.untraced.wall.Seconds()) - 1,
	}
	for _, b := range busyBuckets {
		m[b+".busy_frac"] = frac(b)
	}
	return m
}

// writeTrace keeps the traced run's spans and folded profile, with each
// span name's total self time, in dir/traces.
func writeTrace(dir string, w workload, seed uint64, h host, tr traced) (string, error) {
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	selfByName := func(spans []span) map[string]int64 {
		out := map[string]int64{}
		for _, s := range spans {
			out[s.Name] += int64(s.Self)
		}
		return out
	}
	doc := struct {
		Host              host             `json:"host"`
		Workload          string           `json:"workload"`
		Seed              uint64           `json:"seed"`
		ProfileBuckets    map[string]int64 `json:"profile_buckets_cpu_ns"`
		ProfiledSelfNs    map[string]int64 `json:"traced_pass_self_ns"`
		CounterSelfNs     map[string]int64 `json:"counter_pass_self_ns"`
		ProfiledPassSpans []span           `json:"traced_pass_spans"`
		CounterPassSpans  []span           `json:"counter_pass_spans"`
	}{h, w.name, seed, tr.buckets, selfByName(tr.profiledSpans), selfByName(tr.counterSpans),
		tr.profiledSpans, tr.counterSpans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	return path, os.WriteFile(path, data, 0o644)
}
