package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
	ok, err := compareBaseline(sampleReport(1100), base, 20)
	if err != nil || !ok {
		t.Fatalf("10%% slower flagged as regression: ok=%v err=%v", ok, err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := writeReport(t, sampleReport(1000))
	ok, err := compareBaseline(sampleReport(1500), base, 20)
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
	if ok, err := compareBaseline(rep, path, 20); err != nil || ok {
		t.Errorf("50%% slowdown on another host: ok=%v err=%v, want a failed gate", ok, err)
	}
}

func TestCompareIgnoresNewAndMissingKernels(t *testing.T) {
	base := sampleReport(1000)
	base.Kernels = append(base.Kernels, Kernel{Name: "retired-kernel", NsPerOp: 5})
	path := writeReport(t, base)
	rep := sampleReport(1000)
	rep.Kernels = append(rep.Kernels, Kernel{Name: "brand-new", NsPerOp: 7})
	ok, err := compareBaseline(rep, path, 20)
	if err != nil || !ok {
		t.Fatalf("kernel set drift failed the gate: ok=%v err=%v", ok, err)
	}
}

func TestCompareRejectsWrongSchema(t *testing.T) {
	base := sampleReport(1000)
	base.Schema = "randfill-bench/v0"
	path := writeReport(t, base)
	if _, err := compareBaseline(sampleReport(1000), path, 20); err == nil {
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
