package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"randfill/internal/experiments"
)

// TestLayerMapComplete checks that every package under internal/ maps to
// exactly one layer bucket and that the map names no package that is gone.
func TestLayerMapComplete(t *testing.T) {
	root := filepath.Join("..", "internal")
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkgs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buckets := map[string]bool{"experiments": true, "checkpoint": true, "tooling": true}
	for _, b := range busyBuckets {
		buckets[b] = true
	}
	for p := range pkgs {
		b, ok := layerOf[p]
		switch {
		case !ok:
			t.Errorf("package internal/%s maps to no layer bucket: add it to layerOf", p)
		case !buckets[b]:
			t.Errorf("package internal/%s maps to unknown bucket %q", p, b)
		}
	}
	for p := range layerOf {
		if !pkgs[p] {
			t.Errorf("layerOf names internal/%s, which is not a package", p)
		}
	}
}

func TestStackBucket(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"randfill/internal/sim.(*Thread).access", "randfill/internal/attacks.(*Collision).Collect"}, "sim"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "randfill/internal/trace.CompileInto"}, "trace"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "randfill/internal/aes.(*Tracer).EncryptCBC"}, bucketGC},
		{[]string{"randfill/internal/plcache.(*PLcache).Lookup"}, "securecache"},
		{[]string{"main.bench", "runtime.main"}, bucketBench},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketUnattributed},
		{[]string{"randfill/internal/nosuchpkg.F"}, bucketUnattributed},
	} {
		if got := stackBucket(tc.stack); got != tc.want {
			t.Errorf("stackBucket(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestFoldProfile decodes a real CPU profile of this process.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	b, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b[bucketBench] == 0 {
		t.Fatalf("no CPU time folded into the benchmark's bucket: %v", b)
	}
}

func TestSelfTime(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{ID: 1, Name: "unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	got := map[string]time.Duration{}
	for _, s := range r.finish() {
		got[s.Name] = s.Self
	}
	// unit's children cover [10,50] and, clipped, [90,100].
	want := map[string]time.Duration{"unit": 50, "a": 20, "b": 20, "c": 30, "d": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	h := fingerprint()
	other := h
	other.CPUModel = "another CPU"
	rec := func(h host, wall float64) record {
		return record{Host: h, Workload: "spec", Result: result{Metrics: map[string]metric{"wall_s": {wall, "s"}}}}
	}
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"wall_s","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := compare([]record{rec(h, 1)}, []record{rec(other, 1)}, spec, &out); !errors.Is(err, errHostMismatch) {
		t.Fatalf("compare across hosts: err = %v, want %v", err, errHostMismatch)
	}
	if out.Len() != 0 {
		t.Fatalf("compare across hosts printed a verdict:\n%s", out.String())
	}
	newCommit := h
	newCommit.Commit = "other"
	ok, err := compare([]record{rec(h, 1)}, []record{rec(newCommit, 1.2)}, spec, &out)
	if err != nil || ok {
		t.Fatalf("20%% slower wall_s against a 10%% bound: ok=%v err=%v", ok, err)
	}
}

func TestCommit(t *testing.T) {
	dir := t.TempDir()
	if got := commit(dir); got != "unknown" {
		t.Errorf("commit outside a checkout = %q, want unknown", got)
	}
	write := func(name, data string) {
		path := filepath.Join(dir, ".git", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs with: peeled\naaa refs/heads/main\n")
	if got := commit(dir); got != "aaa" {
		t.Errorf("commit from packed-refs = %q, want aaa", got)
	}
	write("refs/heads/main", "bbb\n")
	if got := commit(dir); got != "bbb" {
		t.Errorf("commit from the branch ref = %q, want bbb", got)
	}
	write("HEAD", "ccc\n")
	if got := commit(dir); got != "ccc" {
		t.Errorf("commit of a detached HEAD = %q, want ccc", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the benchmark
// prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark prints %s %s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// tinyBudgets shrink each workload to a smoke-test size.
var tinyBudgets = map[string]func(*experiments.Scale){
	"security": func(sc *experiments.Scale) {
		sc.MonteCarloTrials, sc.AttackMaxSamples, sc.AttackBatch = 200, 256, 128
	},
	"spec": func(sc *experiments.Scale) {
		sc.SpecAccesses, sc.CBCBytes = 2000, 512
	},
	"matrix": func(sc *experiments.Scale) {
		sc.MonteCarloTrials, sc.CBCBytes = 2000, 256
	},
}

// TestSmoke runs each workload at a tiny budget through the traced run and
// the digest path.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wantUnits := map[string]float64{"security": 12, "spec": 24, "matrix": 42}
	for _, w := range workloadList {
		w := w
		t.Run(w.name, func(t *testing.T) {
			w.budget = tinyBudgets[w.name]
			dir := t.TempDir()
			ctx := context.Background()
			tr, attempted, failures := tracedRun(ctx, w, 7, dir)
			if len(failures) != 0 || attempted != 3 {
				t.Fatalf("traced run: attempted %d, failures %v", attempted, failures)
			}
			m := layerMetrics(w, tr)
			if m["experiments.units"] != wantUnits[w.name] {
				t.Errorf("experiments.units = %v, want %v", m["experiments.units"], wantUnits[w.name])
			}
			if w.checkpointed && (m["checkpoint.puts"] != 42 || m["checkpoint.gets"] != 42) {
				t.Errorf("checkpoint puts/gets = %v/%v, want 42/42", m["checkpoint.puts"], m["checkpoint.gets"])
			}
			if m["sim.accesses"] == 0 || m["cache.l1_accesses"] == 0 {
				t.Errorf("counter pass counted no simulated accesses: %v", m)
			}

			o := options{workload: w, workdir: dir, digests: filepath.Join(dir, "digests.json")}
			var out bytes.Buffer
			if err := recordDigest(ctx, o, &out); err != nil {
				t.Fatal(err)
			}
			if err := checkDigest(ctx, o); err != nil {
				t.Fatalf("digest just recorded does not check: %v", err)
			}
			if err := os.WriteFile(o.digests, []byte(`{"`+w.name+`": "sha256:0"}`), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := checkDigest(ctx, o); err == nil {
				t.Fatal("a wrong digest checked")
			}
		})
	}
}
