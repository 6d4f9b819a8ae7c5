package experiments

import (
	"os"
	"strconv"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/securecache"
)

// TestPolicyMatrixShape: one row per (policy, design) pair, policy-major in
// PolicyNames order, designs in registry order, every cell numeric.
func TestPolicyMatrixShape(t *testing.T) {
	tbl := mustTable(t, "PolicyMatrix", tinyScale())
	policies := cache.PolicyNames()
	designs := securecache.All()
	if len(tbl.Rows) != len(policies)*len(designs) {
		t.Fatalf("%d rows, want %d (policies x designs)", len(tbl.Rows), len(policies)*len(designs))
	}
	for i, row := range tbl.Rows {
		if row[0] != policies[i/len(designs)] {
			t.Errorf("row %d policy %q, want %q", i, row[0], policies[i/len(designs)])
		}
		if row[1] != designs[i%len(designs)].Name {
			t.Errorf("row %d design %q, want %q (registry order)", i, row[1], designs[i%len(designs)].Name)
		}
		if len(row) != len(tbl.Headers) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tbl.Headers))
		}
		for j, cell := range row[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %d col %d: %q is not numeric: %v", i, j+2, cell, err)
			}
			if v < 0 {
				t.Errorf("row %d col %d: negative %v", i, j+2, v)
			}
		}
	}
}

// TestPolicyMatrixPolicyEffect pins the matrix's reason to exist: on a
// placement-randomizing design, swapping the deterministic default victim
// selection for a draw-backed one moves the occupancy channel — the
// policy x design interaction Peters et al. style sweeps look for. LRU's
// deterministic eviction order lets the occupancy probe read the victim's
// footprint cleanly; a random victim stream adds eviction noise the probe
// cannot average away at the same budget.
func TestPolicyMatrixPolicyEffect(t *testing.T) {
	tbl := mustTable(t, "PolicyMatrix", tinyScale())
	occAcc := func(policy, design string) float64 {
		for _, row := range tbl.Rows {
			if row[0] == policy && row[1] == design {
				v, err := strconv.ParseFloat(row[4], 64)
				if err != nil {
					t.Fatalf("%s/%s: %v", policy, design, err)
				}
				return v
			}
		}
		t.Fatalf("(%s, %s) missing from the matrix", policy, design)
		return 0
	}
	if lru, rnd := occAcc("lru", "scattercache"), occAcc("random", "scattercache"); rnd >= lru {
		t.Errorf("scattercache occupancy acc: random %.3f not below lru %.3f (policy choice should move the channel)", rnd, lru)
	}
	// The headline cell: BRRIP's thrash-resistant insertion starves the
	// attacker's prime on newcache, collapsing the occupancy probe.
	if lru, br := occAcc("lru", "newcache"), occAcc("brrip", "newcache"); br >= lru {
		t.Errorf("newcache occupancy acc: brrip %.3f not below lru %.3f", br, lru)
	}
	// The randfill design's reuse channel stays closed under every policy:
	// the window hides the demand line regardless of who gets evicted.
	for _, p := range cache.PolicyNames() {
		for _, row := range tbl.Rows {
			if row[0] == p && row[1] == "randfill" {
				v, _ := strconv.ParseFloat(row[2], 64)
				if v > 0.5 {
					t.Errorf("randfill reuse acc %.3f under %s, want the channel closed under every policy", v, p)
				}
			}
		}
	}
}

// TestPolicyMatrixWorkerInvariance is the acceptance check by name: the
// rendered matrix is byte-identical at -workers 1, 2 and 8.
func TestPolicyMatrixWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full tiny-scale matrix runs")
	}
	e, ok := ByName("PolicyMatrix")
	if !ok {
		t.Fatal("PolicyMatrix not registered")
	}
	sc := tinyScale()
	sc.Workers = 1
	want := mustRun(t, e, sc)
	for _, w := range []int{2, 8} {
		sc.Workers = w
		if got := mustRun(t, e, sc); got != want {
			t.Fatalf("workers=%d changed the matrix\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				w, want, w, got)
		}
	}
}

// TestPolicyMatrixResumeByteIdentical: a half-destroyed checkpoint set
// resumes to the clean bytes, re-running only the damaged cells.
func TestPolicyMatrixResumeByteIdentical(t *testing.T) {
	e, _ := ByName("PolicyMatrix")
	sc := tinyScale()
	clean := mustRun(t, e, sc)

	dir := t.TempDir()
	st, h := openStore(t, dir)
	sc.Checkpoint = st
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("checkpointing changed the output")
	}
	n := len(cache.PolicyNames()) * len(securecache.All())
	if h.count() != n {
		t.Fatalf("%d checkpoint writes, want %d (one per cell)", h.count(), n)
	}

	files := ckptFiles(t, dir)
	if len(files) != n {
		t.Fatalf("%d .ckpt files, want %d", len(files), n)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[1], 5); err != nil {
		t.Fatal(err)
	}

	st2, h2 := openStore(t, dir)
	sc.Checkpoint = st2
	sc.Resume = true
	sc.Workers = 8
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("resumed matrix differs from clean run")
	}
	if h2.count() != 2 {
		t.Fatalf("resume re-ran %d cells, want exactly the 2 damaged ones", h2.count())
	}
}
