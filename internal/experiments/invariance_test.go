package experiments

import (
	"context"
	"flag"
	"testing"
)

// mustRun renders one experiment, failing the test on error (no experiment
// errors under a background ctx).
func mustRun(t *testing.T, e Experiment, sc Scale) string {
	t.Helper()
	tbl, err := e.Run(context.Background(), sc)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return tbl.String()
}

// mustTable runs the named experiment under a background ctx, failing the
// test on error.
func mustTable(t *testing.T, name string, sc Scale) *Table {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	tbl, err := e.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// extraWorkers adds one more worker count to the invariance matrix, so CI
// (or a curious operator) can probe odd counts without editing the test:
//
//	go test ./internal/experiments -run Invariance -workers 5
var extraWorkers = flag.Int("workers", 0, "extra worker count for the invariance matrix (0 = none)")

// tinyScale is the metamorphic-test budget: every experiment still
// exercises its full code path (sharded searches, Monte Carlo merges, SMT
// co-runs) but at the smallest budgets that keep the suite in CI range.
func tinyScale() Scale {
	return Scale{
		MonteCarloTrials: 2000,
		AttackMaxSamples: 2048,
		AttackBatch:      1024,
		Figure2Samples:   1024,
		CBCBytes:         2048,
		SpecAccesses:     20000,
		Seed:             1,
	}
}

// TestWorkerCountInvariance is the engine's contract, checked end to end:
// for every registered experiment, the rendered table is byte-identical
// across worker counts, and repeating a run at the same seed reproduces the
// same bytes. This is a metamorphic test — no expected outputs are pinned;
// only the relation between runs is asserted.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment four times")
	}
	counts := []int{1, 2, 8}
	if *extraWorkers > 0 {
		counts = append(counts, *extraWorkers)
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			sc := tinyScale()
			sc.Workers = counts[0]
			want := mustRun(t, e, sc)
			for _, w := range counts[1:] {
				sc.Workers = w
				if got := mustRun(t, e, sc); got != want {
					t.Fatalf("workers=%d changed the output\n--- workers=%d ---\n%s--- workers=%d ---\n%s",
						w, counts[0], want, w, got)
				}
			}
			// Same seed, same worker count: a repeated run must reproduce
			// the exact bytes (no hidden global state between runs).
			sc.Workers = counts[len(counts)-1]
			if got := mustRun(t, e, sc); got != want {
				t.Fatalf("repeated run at workers=%d changed the output", sc.Workers)
			}
		})
	}
}

// TestTable3QuickWorkerInvariance pins the headline acceptance check at the
// scale the command actually runs: `-run table3 -scale quick -workers 8`
// must emit the same bytes as `-workers 1`.
func TestTable3QuickWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-scale Table3 sweeps")
	}
	sc := QuickScale()
	sc.Workers = 1
	serial := mustTable(t, "Table3", sc).String()
	sc.Workers = 8
	if parallel := mustTable(t, "Table3", sc).String(); parallel != serial {
		t.Fatalf("quick-scale Table3 differs between workers=1 and workers=8\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
			serial, parallel)
	}
}
