package atomicio_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
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

// TestCreateRefusesNonRegular: a destination that exists and is not a
// regular file is refused by name, and neither the entry nor what a
// symlink points at changes. A rename would replace the symlink or the
// FIFO itself.
func TestCreateRefusesNonRegular(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.WriteFile(target, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link")
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dest string
		mode fs.FileMode
	}{{link, fs.ModeSymlink}, {fifo, fs.ModeNamedPipe}} {
		if f, err := atomicio.Create(c.dest); err == nil {
			f.Abort()
			t.Fatalf("Create(%s) succeeded", c.dest)
		} else if !strings.Contains(err.Error(), c.dest) || !errors.Is(err, fs.ErrExist) {
			t.Fatalf("Create(%s): %v, want an fs.ErrExist naming the path", c.dest, err)
		}
		if err := atomicio.WriteFile(c.dest, []byte("new"), 0o644); err == nil {
			t.Fatalf("WriteFile(%s) succeeded", c.dest)
		}
		if fi, err := os.Lstat(c.dest); err != nil {
			t.Fatal(err)
		} else if fi.Mode().Type() != c.mode {
			t.Fatalf("%s is now %v, want %v", c.dest, fi.Mode().Type(), c.mode)
		}
	}
	if got, err := os.ReadFile(target); err != nil || string(got) != "kept" {
		t.Fatalf("symlink target holds %q (err %v), want %q", got, err, "kept")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("directory holds %d entries (err %v), want target, link and fifo only", len(entries), err)
	}
}
