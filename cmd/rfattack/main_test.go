package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldens replays the recorded invocations through run and compares
// stdout with testdata/<name>.golden byte for byte.
func TestGoldens(t *testing.T) {
	for _, c := range []struct {
		name string
		args string
	}{
		{"flushreload", "-attack flushreload -window 16,15 -samples 2000"},
		{"primeprobe-newcache", "-attack primeprobe -l1kind newcache -samples 500"},
		{"collision", "-attack collision -samples 8000 -batch 4000"},
		{"modexp-newcache", "-attack modexp -l1kind newcache -seed 5"},
		{"evicttime", "-attack evicttime -samples 500"},
		{"collision-newcache", "-attack collision -l1kind newcache -samples 4000 -window 2,1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("rfattack %s:\n got %s\nwant %s", c.args, got, want)
			}
		})
	}
}

// TestRejects: a command line no attack can run is an error of one line,
// never a panic. Only the collision search prints its header before its
// budget check.
func TestRejects(t *testing.T) {
	for _, args := range []string{
		"-window 3,-2",
		"-attack flushreload -window 0,-1",
		"-attack flushreload -samples 0",
		"-attack primeprobe -samples -3",
		"-attack evicttime -samples 0",
		"-attack collision -batch 0",
		"-attack collision -batch -1",
		"-attack collision -samples -5 -batch 100",
		"-l1kind bogus",
		"-l1kind randfill",
		"-attack bogus",
		"-cpuprofile " + filepath.Join(t.TempDir(), "missing", "cpu.prof"),
		"-nosuchflag",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args), &out)
		if err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("rfattack %s: err %v; want one error line", args, err)
		}
		if out.Len() != 0 && !strings.Contains(args, "collision") {
			t.Errorf("rfattack %s printed %q", args, out.String())
		}
	}
	if err := run([]string{"-h"}, new(bytes.Buffer)); err != nil {
		t.Errorf("-h: %v", err)
	}
}
