package atomicio_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"randfill/internal/atomicio"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "out.json")
	want := []byte("{\"ok\":true}\n")
	if err := atomicio.WriteFile(dest, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "out.json")
	if err := atomicio.WriteFile(dest, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicio.WriteFile(dest, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(dest)
	if string(got) != "new" {
		t.Fatalf("got %q, want %q", got, "new")
	}
}

// TestWriteNewNeverReplaces: of several racing WriteNew calls exactly one
// publishes, every other one reports fs.ErrExist, the file holds the
// winner's bytes, and no temporary file is left behind.
func TestWriteNewNeverReplaces(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "unit.ckpt")
	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = atomicio.WriteNew(dest, []byte(fmt.Sprintf("writer %d", i)), 0o644)
		}(i)
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner >= 0:
			t.Fatalf("writers %d and %d both published", winner, i)
		case err == nil:
			winner = i
		case !errors.Is(err, fs.ErrExist):
			t.Fatalf("writer %d: %v, want fs.ErrExist", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no writer published")
	}
	got, err := os.ReadFile(dest)
	if err != nil || string(got) != fmt.Sprintf("writer %d", winner) {
		t.Fatalf("file holds %q (err %v), want writer %d's bytes", got, err, winner)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want only the published file", len(entries), err)
	}
}

func TestAbortLeavesDestinationUntouched(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "out.bin")
	if err := atomicio.WriteFile(dest, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := atomicio.Create(dest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half-writ")); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed" {
		t.Fatalf("abort clobbered destination: %q", got)
	}
	leftOver(t, dir, "out.bin")
}

func TestAbortAfterCommitIsNoOp(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "x")
	f, err := atomicio.Create(dest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	got, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "data" {
		t.Fatalf("abort after commit damaged file: %q", got)
	}
}

func TestCommitTwiceErrors(t *testing.T) {
	f, err := atomicio.Create(filepath.Join(t.TempDir(), "x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err == nil {
		t.Fatal("second Commit succeeded")
	}
}

func TestNoTempFilesAfterCommit(t *testing.T) {
	dir := t.TempDir()
	if err := atomicio.WriteFile(filepath.Join(dir, "a.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	leftOver(t, dir, "a.json")
}

// leftOver fails the test if dir contains anything besides keep.
func leftOver(t *testing.T, dir, keep string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != keep {
			t.Errorf("stray file %q left behind", e.Name())
		}
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("temp file %q survived", e.Name())
		}
	}
}
