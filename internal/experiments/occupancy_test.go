package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"randfill/internal/securecache"
)

// TestOccupancyMatrixShape: one row per registered design, in registry
// order, with every cell parseable and in range.
func TestOccupancyMatrixShape(t *testing.T) {
	tbl := mustTable(t, "OccupancyMatrix", tinyScale())
	designs := securecache.All()
	if len(tbl.Rows) != len(designs) {
		t.Fatalf("%d rows, want %d (one per design)", len(tbl.Rows), len(designs))
	}
	for i, row := range tbl.Rows {
		if row[0] != designs[i].Name {
			t.Errorf("row %d is %q, want %q (registry order)", i, row[0], designs[i].Name)
		}
		if len(row) != len(tbl.Headers) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tbl.Headers))
		}
		for j, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("row %d col %d: %q is not numeric: %v", i, j+1, cell, err)
			}
			if v < 0 {
				t.Errorf("row %d col %d: negative %v", i, j+1, v)
			}
		}
	}
}

// TestOccupancyMatrixSeparatesChannels pins the matrix's qualitative story
// at tiny scale: randfill closes the reuse channel that the demand-fill
// designs leak, while the occupancy channel stays open on the placement
// randomizers.
func TestOccupancyMatrixSeparatesChannels(t *testing.T) {
	tbl := mustTable(t, "OccupancyMatrix", tinyScale())
	cell := func(design string, col int) float64 {
		for _, row := range tbl.Rows {
			if row[0] == design {
				v, err := strconv.ParseFloat(row[col], 64)
				if err != nil {
					t.Fatalf("%s col %d: %v", design, col, err)
				}
				return v
			}
		}
		t.Fatalf("design %q missing from the matrix", design)
		return 0
	}
	// Column 1 = reuse accuracy, column 4 = occupancy MI.
	if rf, sc := cell("randfill", 1), cell("scattercache", 1); rf >= sc {
		t.Errorf("reuse accuracy: randfill %.3f not below scattercache %.3f", rf, sc)
	}
	for _, d := range []string{"scattercache", "mirage", "newcache"} {
		if mi := cell(d, 4); mi < 0.1 {
			t.Errorf("%s: occupancy MI %.3f, want the channel open on a placement randomizer", d, mi)
		}
	}
}

// TestOccupancyMatrixWorkerInvariance is the satellite acceptance check by
// name: the rendered matrix is byte-identical at -workers 1, 2 and 8.
func TestOccupancyMatrixWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three full tiny-scale matrix runs")
	}
	e, ok := ByName("OccupancyMatrix")
	if !ok {
		t.Fatal("OccupancyMatrix not registered")
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

// TestOccupancyMatrixResumeByteIdentical: a half-destroyed checkpoint set
// resumes to the clean bytes, re-running only the missing design cells.
func TestOccupancyMatrixResumeByteIdentical(t *testing.T) {
	e, _ := ByName("OccupancyMatrix")
	sc := tinyScale()
	clean := mustRun(t, e, sc)
	if !strings.Contains(clean, "mirage") {
		t.Fatalf("matrix missing mirage row:\n%s", clean)
	}

	dir := t.TempDir()
	st, h := openStore(t, dir)
	sc.Checkpoint = st
	if got := mustRun(t, e, sc); got != clean {
		t.Fatal("checkpointing changed the output")
	}
	n := len(securecache.All())
	if h.count() != n {
		t.Fatalf("%d checkpoint writes, want %d (one per design)", h.count(), n)
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
