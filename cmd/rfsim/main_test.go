package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"randfill/internal/traceio"
	"randfill/internal/workloads"
)

// TestGoldens replays the recorded invocations through run and compares
// stdout with testdata/<name>.golden byte for byte.
func TestGoldens(t *testing.T) {
	for _, c := range []struct {
		name string
		args string
	}{
		{"default", ""},
		{"window", "-window -16,15"},
		{"libquantum-steady", "-workload libquantum -window 0,15 -steady -n 100000"},
		{"plcache-preload", "-design plcache -mode preload"},
		{"disable-dm", "-l1 8192 -ways 1 -mode disable"},
		{"scattercache", "-design scattercache"},
		{"randfill", "-design randfill"},
		{"randomfill", "-mode randomfill -window 8,7"},
		{"three-level", "-l3 4194304 -l3window 4,3 -l2window 2,1"},
		{"prefetch", "-prefetch"},
		{"newcache-brrip", "-design newcache -policy brrip -workload astar -n 100000"},
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
				t.Errorf("rfsim %s:\n got %s\nwant %s", c.args, got, want)
			}
		})
	}
}

// TestTraceFile: -trace replays a trace file and prints the same counters
// as the generated workload it holds.
func TestTraceFile(t *testing.T) {
	g, _ := workloads.ByName("astar")
	path := filepath.Join(t.TempDir(), "astar.trace")
	if _, err := traceio.WriteFile(path, g.Gen(20000, 1)); err != nil {
		t.Fatal(err)
	}
	var gen, file bytes.Buffer
	if err := run([]string{"-workload", "astar", "-n", "20000"}, &gen); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", path}, &file); err != nil {
		t.Fatal(err)
	}
	_, g1, _ := strings.Cut(gen.String(), "\n")
	_, f1, _ := strings.Cut(file.String(), "\n")
	if g1 != f1 {
		t.Errorf("trace file run differs from the generated workload:\n%s\n%s", f1, g1)
	}
	if err := run([]string{"-trace", path + ".missing"}, &file); err == nil {
		t.Error("a missing trace file was accepted")
	}
}

// TestRejects: a command line the simulator cannot run is an error of one
// line, never a panic, and prints nothing.
func TestRejects(t *testing.T) {
	for _, args := range []string{
		"-l1 1000",
		"-ways 0",
		"-ways 3",
		"-l3 1000",
		"-l3 4194304 -l3ways 0",
		"-mshrs -1",
		"-mshrs 1000000000",
		"-l1 68719476736",
		"-l3 68719476736",
		"-window 3,-2",
		"-l2window 1,-1",
		"-l3window 1,x",
		"-design nomo -ways 1",
		"-design plcache -l1 524288 -ways 128",
		"-design newcache -l1 3072",
		"-design mirage -l1 1000",
		"-design scattercache -ways 3",
		"-mode preload",
		"-mode randomfill",
		"-mode bogus",
		"-design bogus",
		"-policy bogus",
		"-l3window 4,3",
		"-workload bogus",
		"-n -5 -workload astar",
		"-bytes -5",
		"-bytes 0",
		"-workload astar -n 0",
		"-nosuchflag",
	} {
		var out bytes.Buffer
		err := run(strings.Fields(args), &out)
		if err == nil || strings.Contains(err.Error(), "\n") || out.Len() != 0 {
			t.Errorf("rfsim %s: err %v, %d bytes of output; want one error line and no output", args, err, out.Len())
		}
	}
	if err := run([]string{"-h"}, new(bytes.Buffer)); err != nil {
		t.Errorf("-h: %v", err)
	}
}
