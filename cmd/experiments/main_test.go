package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"randfill/internal/atomicio"
	"randfill/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// testQuickGolden pins the exact bytes `experiments -run <name> -scale
// quick` prints for the table (the timing footer is wall-clock and is not
// part of the contract). The golden files are the regression fence for the
// whole stack under each experiment: AES tracing, the cache model, the fill
// engine, the RNG stream layout, and the parallel engine's shard plan. Each
// is rendered at -workers 8 and must equal a -workers 1 rendering first — a
// golden that depended on the worker count would be pinning scheduler
// noise.
//
// budget, if given, adjusts the quick Scale before rendering, for
// experiments whose full quick-scale run is too slow for every test pass.
//
// Regenerate with `go test ./cmd/experiments -run Golden -update` after an
// intentional change, and say why in the commit.
func testQuickGolden(t *testing.T, name, file string, budget ...func(*experiments.Scale)) {
	e, ok := experiments.ByName(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	render := func(workers int) string {
		sc := experiments.QuickScale()
		for _, b := range budget {
			b(&sc)
		}
		sc.Workers = workers
		tbl, err := e.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return tbl.String()
	}
	serial := render(1)
	got := render(8)
	if got != serial {
		t.Fatalf("%s differs between workers=1 and workers=8:\n%s\nvs\n%s", name, serial, got)
	}

	golden := filepath.Join("testdata", file)
	if *update {
		if err := atomicio.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s quick output drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestEquation4QuickGolden(t *testing.T) {
	testQuickGolden(t, "Equation4", "equation4_quick.golden")
}

// Figure5 is the security-side golden: the storage-channel capacity table
// is a pure function of the window/region geometry, so any drift means the
// capacity math changed.
func TestFigure5QuickGolden(t *testing.T) {
	testQuickGolden(t, "Figure5", "figure5_quick.golden")
}

// Figure7 is the performance-side golden: IPC of the AES-CBC workload
// across random fill window sizes exercises the timing simulator's miss
// queue, fill queue and prefetch-free demand path end to end.
func TestFigure7QuickGolden(t *testing.T) {
	testQuickGolden(t, "Figure7", "figure7_quick.golden")
}

// PolicyMatrix pins every (policy, design) cell: the reuse and occupancy
// probers and the AES-CBC victim replayed against all seven L1 designs.
// The budget keeps one render near two seconds.
func TestPolicyMatrixGolden(t *testing.T) {
	testQuickGolden(t, "PolicyMatrix", "policymatrix_budget.golden", func(sc *experiments.Scale) {
		sc.MonteCarloTrials = 10000
		sc.CBCBytes = 4 * 1024
	})
}

// Figure8 pins the SMT co-run: each SPEC-like program interleaved with the
// AES enc+dec thread under the five Figure 8 cache configurations. The
// budget keeps one render near two seconds.
func TestFigure8Golden(t *testing.T) {
	testQuickGolden(t, "Figure8", "figure8_budget.golden", func(sc *experiments.Scale) {
		sc.SpecAccesses = 8000
		sc.CBCBytes = 2 * 1024
	})
}

// Figure10 pins the window sweep: each SPEC-like program replayed warm
// through the demand-fetch baseline and ten random fill windows, at
// Figure 8's benchmark budget.
func TestFigure10Golden(t *testing.T) {
	testQuickGolden(t, "Figure10", "figure10_budget.golden", func(sc *experiments.Scale) {
		sc.SpecAccesses = 8000
	})
}
