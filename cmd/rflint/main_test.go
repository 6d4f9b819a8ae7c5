package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule writes a go.mod and files, pairs of a slash-separated path
// and its content, under a new module root and returns the root.
func writeModule(t *testing.T, files ...[2]string) string {
	t.Helper()
	root := t.TempDir()
	files = append(files, [2]string{"go.mod", "module scratch\n\ngo 1.24\n"})
	for _, f := range files {
		name, content := f[0], f[1]
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestTypeErrorFailsRun lints a module whose one package does not type
// check: the run reports the type error on stderr, does not call the
// module clean, and fails unless -fail-on is never.
func TestTypeErrorFailsRun(t *testing.T) {
	root := writeModule(t,
		[2]string{"bad/bad.go", "package bad\n\n// N is an int given a string.\nvar N int = \"not an int\"\n"})
	for _, tc := range []struct {
		failOn string
		fails  bool
	}{{"warning", true}, {"error", true}, {"never", false}} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-checkers", "detrand", "-fail-on", tc.failOn, root}, &stdout, &stderr)
		if got := err != nil; got != tc.fails || errors.Is(err, errFindings) {
			t.Errorf("-fail-on %s: run returned %v, want a type error: %v", tc.failOn, err, tc.fails)
		}
		if !strings.Contains(stderr.String(), "type error (analysis degraded)") {
			t.Errorf("-fail-on %s: stderr %q names no type error", tc.failOn, stderr.String())
		}
		if strings.Contains(stdout.String(), "rflint: clean") {
			t.Errorf("-fail-on %s: a module that does not type check printed %q", tc.failOn, stdout.String())
		}
	}
}

// TestBuildConstraintsLintClean lints a module that declares one name in a
// race file and again in a !race file: files selected as `go build`
// selects them type check, so the run is clean.
func TestBuildConstraintsLintClean(t *testing.T) {
	root := writeModule(t,
		[2]string{"race/on.go", "//go:build race\n\npackage race\n\n// On is whether the race detector is on.\nconst On = true\n"},
		[2]string{"race/off.go", "//go:build !race\n\npackage race\n\n// On is whether the race detector is on.\nconst On = false\n"})
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-checkers", "detrand", root}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v; stderr %q", err, stderr.String())
	}
	if stderr.Len() != 0 || strings.TrimSpace(stdout.String()) != "rflint: clean" {
		t.Errorf("stdout %q, stderr %q; want only \"rflint: clean\"", stdout.String(), stderr.String())
	}
}
