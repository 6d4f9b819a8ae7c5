package main

// The fabric suite drives the real experiments binary as a multi-process
// fleet over a shared fabric directory and asserts the distributed
// acceptance contract: the coordinator's rendered stdout is byte-identical
// to a single-process run no matter how many worker processes ran, died
// mid-unit, or were re-dispatched — and -join merges any set of partial
// stores to the same bytes.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"randfill/internal/faultinject"
)

// proc is one running experiments process with captured streams.
type proc struct {
	cmd      *exec.Cmd
	out, err bytes.Buffer
}

// startBin launches the experiments binary without waiting and registers a
// hard-kill cleanup so a hung process cannot wedge the test run.
func startBin(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(binary(t), args...)}
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.err
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", args, err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			// Best-effort teardown of an already-failed test.
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
	})
	return p
}

// wait blocks for the process and returns its streams and exit code.
func (p *proc) wait(t *testing.T) runResult {
	t.Helper()
	err := p.cmd.Wait()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("waiting for %v: %v", p.cmd.Args, err)
		}
		code = ee.ExitCode()
	}
	return runResult{p.out.String(), p.err.String(), code}
}

// coordArgs builds the coordinator command line with test-friendly timing.
func coordArgs(dir, name string, extra ...string) []string {
	return append([]string{"-role", "coordinator", "-fabric-dir", dir,
		"-run", name, "-scale", "quick",
		"-lease-ttl", "2s", "-fabric-poll", "50ms"}, extra...)
}

// workerArgs builds a worker command line with test-friendly timing.
func workerArgs(dir, name, id string, extra ...string) []string {
	return append([]string{"-role", "worker", "-fabric-dir", dir,
		"-run", name, "-scale", "quick", "-worker-id", id,
		"-lease-ttl", "2s", "-fabric-poll", "50ms",
		"-worker-idle-exit", "2m"}, extra...)
}

// fabricRun runs one coordinator plus n external workers to completion and
// returns the coordinator's result and each worker's exit code.
// workerFaults maps worker index -> -fault-plan spec.
func fabricRun(t *testing.T, name string, n int, workerFaults map[int]string) (runResult, []int) {
	t.Helper()
	dir := t.TempDir()
	coord := startBin(t, coordArgs(dir, name)...)
	workers := make([]*proc, n)
	for i := range workers {
		args := workerArgs(dir, name, fmt.Sprintf("w%d", i))
		if f, ok := workerFaults[i]; ok {
			args = append(args, "-fault-plan", f)
		}
		workers[i] = startBin(t, args...)
	}
	res := coord.wait(t)
	codes := make([]int, n)
	for i, w := range workers {
		codes[i] = w.wait(t).code
	}
	return res, codes
}

// TestFabricByteIdenticalAcrossTopologies is the headline distributed
// acceptance test: for an attack experiment, the policy matrix and a SPEC
// window sweep, a single-process 8-worker run, a 4-worker-process fabric
// run, and a 4-worker fabric run with 2 workers fault-killed mid-run all
// print the same bytes.
func TestFabricByteIdenticalAcrossTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	for _, name := range []string{"Figure2", "PolicyMatrix", "Figure10"} {
		t.Run(name, func(t *testing.T) {
			clean := runBin(t, "-run", name, "-scale", "quick", "-workers", "8")
			if clean.code != 0 {
				t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
			}

			t.Run("FourWorkers", func(t *testing.T) {
				res, codes := fabricRun(t, name, 4, nil)
				if res.code != 0 {
					t.Fatalf("coordinator exited %d:\n%s", res.code, res.stderr)
				}
				if res.stdout != clean.stdout {
					t.Errorf("fabric stdout differs from single-process run\n--- fabric ---\n%s--- clean ---\n%s",
						res.stdout, clean.stdout)
				}
				for i, c := range codes {
					if c != 0 {
						t.Errorf("worker %d exited %d", i, c)
					}
				}
			})

			t.Run("TwoWorkersKilled", func(t *testing.T) {
				// Workers 0 and 1 hard-exit after completing one unit each;
				// the survivors absorb the remaining work and any leases the
				// dead workers still held are re-dispatched after expiry.
				res, codes := fabricRun(t, name, 4, map[int]string{
					0: "kill-worker-after-units=1",
					1: "kill-worker-after-units=1",
				})
				if res.code != 0 {
					t.Fatalf("coordinator exited %d:\n%s", res.code, res.stderr)
				}
				if res.stdout != clean.stdout {
					t.Errorf("fabric stdout after worker kills differs from single-process run\n--- fabric ---\n%s--- clean ---\n%s",
						res.stdout, clean.stdout)
				}
				for _, i := range []int{0, 1} {
					if codes[i] != faultinject.KillExitCode {
						t.Errorf("killed worker %d exited %d, want %d", i, codes[i], faultinject.KillExitCode)
					}
				}
				for _, i := range []int{2, 3} {
					if codes[i] != 0 {
						t.Errorf("surviving worker %d exited %d", i, codes[i])
					}
				}
			})
		})
	}
}

// TestFabricKillWholeWorkerMidUnit: a worker is SIGKILLed while stalled
// inside its first unit, holding its lease. The lease expires, the unit is
// re-dispatched to the surviving worker, the coordinator counts at least one
// re-dispatch, and the rendered table still matches the single-process
// bytes.
func TestFabricKillWholeWorkerMidUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "8")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}

	dir := t.TempDir()
	coord := startBin(t, coordArgs(dir, "Figure2")...)
	// w0 stalls for two minutes inside its first unit (units count from
	// 1), so the SIGKILL is guaranteed to land mid-unit with a claimed lease.
	stalled := startBin(t, workerArgs(dir, "Figure2", "w0",
		"-fault-plan", "stall-worker=1:2m")...)
	time.Sleep(1500 * time.Millisecond)
	if err := stalled.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	survivor := startBin(t, workerArgs(dir, "Figure2", "w1")...)

	res := coord.wait(t)
	if res.code != 0 {
		t.Fatalf("coordinator exited %d:\n%s", res.code, res.stderr)
	}
	if res.stdout != clean.stdout {
		t.Errorf("stdout after whole-worker kill differs from single-process run\n--- fabric ---\n%s--- clean ---\n%s",
			res.stdout, clean.stdout)
	}
	stalled.wait(t) // reap; a SIGKILLed process has no meaningful exit contract
	if c := survivor.wait(t).code; c != 0 {
		t.Errorf("surviving worker exited %d", c)
	}
	// The coordinator's summary line reads "... N re-dispatched ..."; the
	// stalled unit must be among them.
	m := regexp.MustCompile(`(\d+) re-dispatched`).FindStringSubmatch(res.stderr)
	if m == nil {
		t.Fatalf("coordinator stderr does not report a re-dispatch count:\n%s", res.stderr)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("coordinator reports 0 re-dispatches after a worker died holding a unit:\n%s", res.stderr)
	}
}

// TestFabricTornLeaseRedispatch: the coordinator's own lease write is torn
// mid-file by the fault plan. The torn lease reads as absent, the unit is
// re-dispatched, and the output is still byte-identical.
func TestFabricTornLeaseRedispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "8")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}
	dir := t.TempDir()
	coord := startBin(t, append(coordArgs(dir, "Figure2"),
		"-fault-plan", "torn-lease=2")...)
	worker := startBin(t, workerArgs(dir, "Figure2", "w0")...)
	res := coord.wait(t)
	if res.code != 0 {
		t.Fatalf("coordinator exited %d:\n%s", res.code, res.stderr)
	}
	if res.stdout != clean.stdout {
		t.Error("stdout after torn lease differs from single-process run")
	}
	if c := worker.wait(t).code; c != 0 {
		t.Errorf("worker exited %d", c)
	}
}

// TestFabricClockSkewedWorker: a worker whose clock runs 45 seconds ahead
// writes lease deadlines far in the future; the run still completes to the
// exact single-process bytes.
func TestFabricClockSkewedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "8")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}
	dir := t.TempDir()
	coord := startBin(t, coordArgs(dir, "Figure2")...)
	worker := startBin(t, workerArgs(dir, "Figure2", "w0",
		"-fault-plan", "clock-skew=45s")...)
	res := coord.wait(t)
	if res.code != 0 {
		t.Fatalf("coordinator exited %d:\n%s", res.code, res.stderr)
	}
	if res.stdout != clean.stdout {
		t.Error("stdout with a clock-skewed worker differs from single-process run")
	}
	if c := worker.wait(t).code; c != 0 {
		t.Errorf("worker exited %d", c)
	}
}

// TestFabricSpawn: the coordinator's -fabric-spawn convenience launches its
// own worker subprocesses and the result matches the single-process bytes.
func TestFabricSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "8")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}
	res := runBin(t, append(coordArgs(t.TempDir(), "Figure2"),
		"-fabric-spawn", "3")...)
	if res.code != 0 {
		t.Fatalf("coordinator exited %d:\n%s", res.code, res.stderr)
	}
	if res.stdout != clean.stdout {
		t.Errorf("-fabric-spawn stdout differs from single-process run\n--- fabric ---\n%s--- clean ---\n%s",
			res.stdout, clean.stdout)
	}
}

// TestFabricSecondCoordinatorRefuses: while one coordinator holds a live
// lease on the fabric directory, a second coordinator exits with code 5 and
// does not disturb the first.
func TestFabricSecondCoordinatorRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	dir := t.TempDir()
	// Long TTL and no workers: the first coordinator just holds the lease.
	first := startBin(t, "-role", "coordinator", "-fabric-dir", dir,
		"-run", "Figure2", "-scale", "quick", "-lease-ttl", "1m", "-fabric-poll", "50ms")
	time.Sleep(time.Second)

	second := runBin(t, "-role", "coordinator", "-fabric-dir", dir,
		"-run", "Figure2", "-scale", "quick", "-lease-ttl", "1m")
	if second.code != 5 {
		t.Fatalf("second coordinator exited %d, want 5:\n%s", second.code, second.stderr)
	}

	if err := first.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if c := first.wait(t).code; c != 3 {
		t.Errorf("interrupted first coordinator exited %d, want 3", c)
	}
}

// TestFabricJoinMergesPartialRuns: two overlapping partial checkpoint
// stores (one with a torn file) merge into a fresh destination; the joined
// run re-executes only the missing units and prints the exact
// single-process bytes.
func TestFabricJoinMergesPartialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess join runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}

	// Partial store A: first 3 of Figure2's 8 units, then one torn in place.
	dirA := t.TempDir()
	if killed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dirA, "-fault-plan", "kill-after-puts=3"); killed.code != faultinject.KillExitCode {
		t.Fatalf("partial run A exited %d:\n%s", killed.code, killed.stderr)
	}
	filesA := ckpts(t, dirA)
	if len(filesA) != 3 {
		t.Fatalf("partial store A holds %d checkpoints, want 3", len(filesA))
	}
	if err := os.Truncate(filesA[0], 10); err != nil {
		t.Fatal(err)
	}

	// Partial store B: first 6 units — overlapping A.
	dirB := t.TempDir()
	if killed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dirB, "-fault-plan", "kill-after-puts=6"); killed.code != faultinject.KillExitCode {
		t.Fatalf("partial run B exited %d:\n%s", killed.code, killed.stderr)
	}

	dst := t.TempDir()
	joined := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dst, "-join", dirA+","+dirB)
	if joined.code != 0 {
		t.Fatalf("joined run exited %d:\n%s", joined.code, joined.stderr)
	}
	if joined.stdout != clean.stdout {
		t.Errorf("joined stdout differs from single-process run\n--- joined ---\n%s--- clean ---\n%s",
			joined.stdout, clean.stdout)
	}
	if !strings.Contains(joined.stderr, "torn skipped") {
		t.Errorf("join report missing from stderr:\n%s", joined.stderr)
	}
	if n := len(ckpts(t, dst)); n != 8 {
		t.Errorf("joined store holds %d checkpoints, want all 8", n)
	}
}

// TestFabricJoinResolvesFabricRoot: -join accepts a fabric directory and
// resolves its ckpt/ subdirectory automatically.
func TestFabricJoinResolvesFabricRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fabric runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}
	dir := t.TempDir()
	res := runBin(t, append(coordArgs(dir, "Figure2"), "-fabric-spawn", "2")...)
	if res.code != 0 {
		t.Fatalf("fabric run exited %d:\n%s", res.code, res.stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "ckpt")); err != nil {
		t.Fatalf("fabric run left no ckpt/ dir: %v", err)
	}

	dst := t.TempDir()
	joined := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dst, "-join", dir)
	if joined.code != 0 {
		t.Fatalf("joined run exited %d:\n%s", joined.code, joined.stderr)
	}
	if joined.stdout != clean.stdout {
		t.Error("join-from-fabric-root stdout differs from single-process run")
	}
}

// TestFabricUsageErrors pins exit code 2 for the new flag combinations.
func TestFabricUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess runs")
	}
	for _, args := range [][]string{
		{"-role", "worker"}, // no -fabric-dir
		{"-role", "conductor", "-fabric-dir", t.TempDir()}, // unknown role
		{"-role", "worker", "-fabric-dir", t.TempDir()},    // -run all is not one experiment
		{"-role", "coordinator", "-fabric-dir", t.TempDir(), "-run", "Figure2",
			"-checkpoint-dir", t.TempDir()}, // role owns its store
		{"-join", t.TempDir()}, // -join needs a destination
	} {
		if res := runBin(t, args...); res.code != 2 {
			t.Errorf("%v exited %d, want 2", args, res.code)
		}
	}
}
