package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func sampleReport(ns float64) Report {
	return Report{
		Schema: Schema,
		Commit: "deadbeef",
		Go:     "go1.22",
		Host:   Host{CPU: "Example CPU", NumCPU: 2, GOMAXPROCS: 2},
		Kernels: []Kernel{
			{Name: "table3-cell", Iterations: 3, NsPerOp: ns, BytesPerOp: 64, AllocsPerOp: 1},
			{Name: "sim-replay", Iterations: 100, NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 0},
		},
	}
}

func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinThreshold(t *testing.T) {
	base := writeReport(t, sampleReport(1000))
	ok, err := compareBaseline(io.Discard, sampleReport(1100), base, 20)
	if err != nil || !ok {
		t.Fatalf("10%% slower flagged as regression: ok=%v err=%v", ok, err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := writeReport(t, sampleReport(1000))
	ok, err := compareBaseline(io.Discard, sampleReport(1500), base, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("50% slowdown passed the 20% gate")
	}
}

// A baseline from another host still gates: CI compares a hosted runner
// against a baseline recorded elsewhere.
func TestCompareGatesAcrossHosts(t *testing.T) {
	path := writeReport(t, sampleReport(1000))
	rep := sampleReport(1500)
	rep.Host = Host{CPU: "Other CPU", NumCPU: 4, GOMAXPROCS: 4}
	if ok, err := compareBaseline(io.Discard, rep, path, 20); err != nil || ok {
		t.Errorf("50%% slowdown on another host: ok=%v err=%v, want a failed gate", ok, err)
	}
}

func TestCompareIgnoresNewAndMissingKernels(t *testing.T) {
	base := sampleReport(1000)
	base.Kernels = append(base.Kernels, Kernel{Name: "retired-kernel", NsPerOp: 5, BytesPerOp: 96, AllocsPerOp: 2})
	path := writeReport(t, base)
	rep := sampleReport(1000)
	rep.Kernels = append(rep.Kernels, Kernel{Name: "brand-new", NsPerOp: 7, BytesPerOp: 48, AllocsPerOp: 3})
	var out strings.Builder
	ok, err := compareBaseline(&out, rep, path, 20)
	if err != nil || !ok {
		t.Fatalf("kernel set drift failed the gate: ok=%v err=%v", ok, err)
	}
	// A one-sided kernel shows the bytes/op and allocs/op of its side.
	for _, want := range [][]string{
		{"brand-new", "-", "7", "-", "-", "48", "-", "-", "3", "-", "(new", "kernel)"},
		{"retired-kernel", "5", "-", "-", "96", "-", "-", "2", "-", "-", "(not", "run)"},
	} {
		if !hasRow(out.String(), want) {
			t.Errorf("no row %q in:\n%s", want, out.String())
		}
	}
}

// TestCompareShowsBytesPerOp: the table sets old and new bytes/op and
// their delta beside allocs/op, for a memory change that does not gate.
func TestCompareShowsBytesPerOp(t *testing.T) {
	path := writeReport(t, sampleReport(1000))
	rep := sampleReport(1000)
	rep.Kernels[0].BytesPerOp, rep.Kernels[0].AllocsPerOp = 16, 2
	rep.Kernels[1].BytesPerOp = 32
	var out strings.Builder
	ok, err := compareBaseline(&out, rep, path, 20)
	if err != nil || !ok {
		t.Fatalf("a bytes/op change failed the ns/op gate: ok=%v err=%v", ok, err)
	}
	for _, want := range [][]string{
		{"kernel", "old", "ns/op", "new", "ns/op", "delta", "old", "B/op", "new", "B/op", "delta", "old", "allocs", "new", "allocs", "delta"},
		{"table3-cell", "1000", "1000", "+0.0%", "64", "16", "-75.0%", "1", "2", "+100.0%"},
		{"sim-replay", "1000", "1000", "+0.0%", "0", "32", "+inf", "0", "0", "0.0%"},
	} {
		if !hasRow(out.String(), want) {
			t.Errorf("no row %q in:\n%s", want, out.String())
		}
	}
}

// hasRow reports whether out has a line whose fields are exactly want.
func hasRow(out string, want []string) bool {
	for _, line := range strings.Split(out, "\n") {
		if slices.Equal(strings.Fields(line), want) {
			return true
		}
	}
	return false
}

func TestCompareRejectsWrongSchema(t *testing.T) {
	base := sampleReport(1000)
	base.Schema = "randfill-bench/v0"
	path := writeReport(t, base)
	if _, err := compareBaseline(io.Discard, sampleReport(1000), path, 20); err == nil {
		t.Error("wrong schema accepted")
	}
}

func TestSelectKernelsPreservesRequestOrder(t *testing.T) {
	defs := selectKernels(kernels(), []string{"sim-replay", " table3-cell"})
	if len(defs) != 2 || defs[0].name != "sim-replay" || defs[1].name != "table3-cell" {
		t.Fatalf("selectKernels = %v", defs)
	}
}

func TestEmitRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := emit(sampleReport(42), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Host != sampleReport(42).Host || len(rep.Kernels) != 2 || rep.Kernels[0].NsPerOp != 42 {
		t.Fatalf("round trip lost data: %+v", rep)
	}
}

// TestSummarizeTakesMedianRound: a kernel records its median round's
// ns/op, iterations and allocations (the lower median for an even count),
// with the fastest and slowest rounds' ns/op as its range.
func TestSummarizeTakesMedianRound(t *testing.T) {
	round := func(n int, ns int64, allocs uint64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: n, T: time.Duration(ns * int64(n)), MemAllocs: allocs * uint64(n), MemBytes: 8 * allocs * uint64(n)}
	}
	rounds := []testing.BenchmarkResult{round(10, 500, 1), round(20, 300, 2), round(40, 900, 3), round(30, 400, 4), round(50, 700, 5)}
	k := summarize("l1-miss", rounds)
	want := Kernel{Name: "l1-miss", Rounds: 5, Iterations: 10, NsPerOp: 500, NsPerOpMin: 300, NsPerOpMax: 900, BytesPerOp: 8, AllocsPerOp: 1}
	if k != want {
		t.Fatalf("summarize = %+v, want %+v", k, want)
	}
	if k := summarize("l1-miss", rounds[:4]); k.NsPerOp != 400 || k.Iterations != 30 || k.NsPerOpMax != 900 {
		t.Fatalf("even count: %+v, want the lower median round (400 ns/op, 30 iterations)", k)
	}
	if k := summarize("l1-miss", rounds[:1]); k.Rounds != 1 || k.NsPerOp != 500 || k.NsPerOpMin != 500 || k.NsPerOpMax != 500 {
		t.Fatalf("one round: %+v", k)
	}
}
