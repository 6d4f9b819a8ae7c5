package main

// The crash-resume suite runs the real experiments binary as a subprocess,
// kills it mid-run with the deterministic fault harness (or a signal), and
// asserts the acceptance contract: a resumed run's stdout is byte-identical
// to an uninterrupted run's, at any worker count, even when the crash left
// torn checkpoints behind. On failure, checkpoint directories are copied to
// $CRASH_RESUME_ARTIFACT_DIR (when set) so CI can upload them.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/faultinject"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// binary builds cmd/experiments once per test process and returns its path.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "experiments-bin-")
		if err != nil {
			buildErr = err
			return
		}
		bin := filepath.Join(dir, "experiments")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("building experiments binary: %v\n%s", err, out)
			return
		}
		binPath = bin
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

type runResult struct {
	stdout, stderr string
	code           int
}

// runBin runs the experiments binary and returns its streams and exit code;
// only start failures (not non-zero exits) fail the test.
func runBin(t *testing.T, args ...string) runResult {
	t.Helper()
	cmd := exec.Command(binary(t), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return runResult{out.String(), errb.String(), code}
}

// saveArtifacts copies the checkpoint dir to $CRASH_RESUME_ARTIFACT_DIR if
// the test failed, so CI uploads the evidence.
func saveArtifacts(t *testing.T, ckptDir string) {
	t.Cleanup(func() {
		dest := os.Getenv("CRASH_RESUME_ARTIFACT_DIR")
		if dest == "" || !t.Failed() {
			return
		}
		target := filepath.Join(dest, t.Name())
		if err := os.MkdirAll(target, 0o755); err != nil {
			t.Logf("saving artifacts: %v", err)
			return
		}
		entries, err := os.ReadDir(ckptDir)
		if err != nil {
			t.Logf("saving artifacts: %v", err)
			return
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(ckptDir, e.Name()))
			if err != nil {
				continue
			}
			if err := os.WriteFile(filepath.Join(target, e.Name()), data, 0o644); err != nil {
				t.Logf("saving artifacts: %v", err)
			}
		}
		t.Logf("checkpoint dir copied to %s", target)
	})
}

// ckpts lists every checkpoint file (complete or torn) through the store's
// own Scan, so the tests and the production inventory agree on what counts
// as a checkpoint file.
func ckpts(t *testing.T, dir string) []string {
	t.Helper()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Path)
	}
	return names
}

// copyDir clones a checkpoint dir so several resume scenarios can start
// from the same crash state.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashResumeKillAndResume is the headline acceptance test: kill a real
// run after 3 of its 8 unit checkpoints, then resume at workers 1, 2, and 8
// — every resumed stdout must equal the uninterrupted run's bytes. Figure2's
// units are attack shards; Figure10's are benchmark window sweeps, each
// resetting one machine per window.
func TestCrashResumeKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-and-resume runs")
	}
	for _, name := range []string{"Figure2", "Figure10"} {
		t.Run(name, func(t *testing.T) {
			clean := runBin(t, "-run", name, "-scale", "quick", "-workers", "1")
			if clean.code != 0 {
				t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
			}

			crashDir := t.TempDir()
			saveArtifacts(t, crashDir)
			killed := runBin(t, "-run", name, "-scale", "quick",
				"-checkpoint-dir", crashDir, "-fault-plan", "kill-after-puts=3")
			if killed.code != faultinject.KillExitCode {
				t.Fatalf("killed run exited %d, want %d:\n%s", killed.code, faultinject.KillExitCode, killed.stderr)
			}
			if n := len(ckpts(t, crashDir)); n != 3 {
				t.Fatalf("killed run left %d checkpoints, want 3", n)
			}

			for _, workers := range []string{"1", "2", "8"} {
				dir := copyDir(t, crashDir)
				saveArtifacts(t, dir)
				resumed := runBin(t, "-run", name, "-scale", "quick",
					"-checkpoint-dir", dir, "-resume", "-workers", workers)
				if resumed.code != 0 {
					t.Fatalf("workers=%s: resume exited %d:\n%s", workers, resumed.code, resumed.stderr)
				}
				if resumed.stdout != clean.stdout {
					t.Errorf("workers=%s: resumed stdout differs from uninterrupted run\n--- resumed ---\n%s--- clean ---\n%s",
						workers, resumed.stdout, clean.stdout)
				}
				if n := len(ckpts(t, dir)); n != 8 {
					t.Errorf("workers=%s: resumed run holds %d checkpoints, want all 8", workers, n)
				}
			}
		})
	}
}

// TestCrashResumeOccupancyMatrix: the design-matrix experiment honors the
// same contract — kill a run after 3 of its 7 per-design checkpoints, then
// resume at every worker count to the uninterrupted run's exact bytes.
func TestCrashResumeOccupancyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-and-resume runs")
	}
	clean := runBin(t, "-run", "OccupancyMatrix", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}

	crashDir := t.TempDir()
	saveArtifacts(t, crashDir)
	killed := runBin(t, "-run", "OccupancyMatrix", "-scale", "quick",
		"-checkpoint-dir", crashDir, "-fault-plan", "kill-after-puts=3")
	if killed.code != faultinject.KillExitCode {
		t.Fatalf("killed run exited %d, want %d:\n%s", killed.code, faultinject.KillExitCode, killed.stderr)
	}
	if n := len(ckpts(t, crashDir)); n != 3 {
		t.Fatalf("killed run left %d checkpoints, want 3", n)
	}

	for _, workers := range []string{"1", "2", "8"} {
		dir := copyDir(t, crashDir)
		saveArtifacts(t, dir)
		resumed := runBin(t, "-run", "OccupancyMatrix", "-scale", "quick",
			"-checkpoint-dir", dir, "-resume", "-workers", workers)
		if resumed.code != 0 {
			t.Fatalf("workers=%s: resume exited %d:\n%s", workers, resumed.code, resumed.stderr)
		}
		if resumed.stdout != clean.stdout {
			t.Errorf("workers=%s: resumed stdout differs from uninterrupted run\n--- resumed ---\n%s--- clean ---\n%s",
				workers, resumed.stdout, clean.stdout)
		}
		if n := len(ckpts(t, dir)); n != 7 {
			t.Errorf("workers=%s: resumed run holds %d checkpoints, want all 7 (one per design)", workers, n)
		}
	}
}

// TestCrashResumePolicyMatrix: the policy x design sweep honors the same
// contract over its 42 per-cell checkpoints — kill a run after 10, then
// resume at every worker count to the uninterrupted run's exact bytes.
func TestCrashResumePolicyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-and-resume runs")
	}
	clean := runBin(t, "-run", "PolicyMatrix", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}

	crashDir := t.TempDir()
	saveArtifacts(t, crashDir)
	killed := runBin(t, "-run", "PolicyMatrix", "-scale", "quick",
		"-checkpoint-dir", crashDir, "-fault-plan", "kill-after-puts=10")
	if killed.code != faultinject.KillExitCode {
		t.Fatalf("killed run exited %d, want %d:\n%s", killed.code, faultinject.KillExitCode, killed.stderr)
	}
	if n := len(ckpts(t, crashDir)); n != 10 {
		t.Fatalf("killed run left %d checkpoints, want 10", n)
	}

	for _, workers := range []string{"1", "2", "8"} {
		dir := copyDir(t, crashDir)
		saveArtifacts(t, dir)
		resumed := runBin(t, "-run", "PolicyMatrix", "-scale", "quick",
			"-checkpoint-dir", dir, "-resume", "-workers", workers)
		if resumed.code != 0 {
			t.Fatalf("workers=%s: resume exited %d:\n%s", workers, resumed.code, resumed.stderr)
		}
		if resumed.stdout != clean.stdout {
			t.Errorf("workers=%s: resumed stdout differs from uninterrupted run\n--- resumed ---\n%s--- clean ---\n%s",
				workers, resumed.stdout, clean.stdout)
		}
		if n := len(ckpts(t, dir)); n != 42 {
			t.Errorf("workers=%s: resumed run holds %d checkpoints, want all 42 (one per cell)", workers, n)
		}
	}
}

// TestCrashResumeTornCheckpoint: a checkpoint torn by the crash (or injected
// torn mid-write) is detected by the CRC frame, silently re-run, and the
// resumed output still matches the clean run byte for byte.
func TestCrashResumeTornCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-and-resume runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}

	dir := t.TempDir()
	saveArtifacts(t, dir)
	// torn-put=2 tears the 2nd checkpoint in place; the kill then leaves a
	// dir with 2 good files and 1 torn one — the write-burst crash shape.
	killed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dir, "-fault-plan", "torn-put=2,kill-after-puts=3")
	if killed.code != faultinject.KillExitCode {
		t.Fatalf("killed run exited %d, want %d:\n%s", killed.code, faultinject.KillExitCode, killed.stderr)
	}
	resumed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dir, "-resume", "-workers", "2")
	if resumed.code != 0 {
		t.Fatalf("resume exited %d:\n%s", resumed.code, resumed.stderr)
	}
	if resumed.stdout != clean.stdout {
		t.Errorf("resume after torn checkpoint differs from clean run\n--- resumed ---\n%s--- clean ---\n%s",
			resumed.stdout, clean.stdout)
	}
}

// TestCrashResumeCorruptCheckpoint: a bit-flipped checkpoint fails its CRC,
// re-runs, and resume still reproduces the clean bytes.
func TestCrashResumeCorruptCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-and-resume runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}
	dir := t.TempDir()
	saveArtifacts(t, dir)
	killed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dir, "-fault-plan", "corrupt-put=1,kill-after-puts=4,seed=9")
	if killed.code != faultinject.KillExitCode {
		t.Fatalf("killed run exited %d, want %d:\n%s", killed.code, faultinject.KillExitCode, killed.stderr)
	}
	resumed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dir, "-resume")
	if resumed.code != 0 {
		t.Fatalf("resume exited %d:\n%s", resumed.code, resumed.stderr)
	}
	if resumed.stdout != clean.stdout {
		t.Error("resume after corrupt checkpoint differs from clean run")
	}
}

// TestCrashResumeFailedWrite: an injected checkpoint-write failure surfaces
// as an experiment error (exit 1), and a later resume over the surviving
// checkpoints completes to the clean bytes.
func TestCrashResumeFailedWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-and-resume runs")
	}
	clean := runBin(t, "-run", "Figure2", "-scale", "quick", "-workers", "1")
	if clean.code != 0 {
		t.Fatalf("clean run exited %d:\n%s", clean.code, clean.stderr)
	}
	dir := t.TempDir()
	saveArtifacts(t, dir)
	failed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dir, "-fault-plan", "fail-put=2")
	if failed.code != 1 {
		t.Fatalf("failed-write run exited %d, want 1:\n%s", failed.code, failed.stderr)
	}
	if !strings.Contains(failed.stderr, "injected write failure") {
		t.Errorf("stderr does not attribute the injected failure:\n%s", failed.stderr)
	}
	resumed := runBin(t, "-run", "Figure2", "-scale", "quick",
		"-checkpoint-dir", dir, "-resume")
	if resumed.code != 0 {
		t.Fatalf("resume exited %d:\n%s", resumed.code, resumed.stderr)
	}
	if resumed.stdout != clean.stdout {
		t.Error("resume after failed write differs from clean run")
	}
}

// TestDeadlineExit: -timeout expiry is exit code 4 with a partial-results
// note pointing at -resume.
func TestDeadlineExit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess runs")
	}
	dir := t.TempDir()
	res := runBin(t, "-run", "Table3", "-scale", "quick",
		"-checkpoint-dir", dir, "-timeout", "50ms")
	if res.code != 4 {
		t.Fatalf("deadline run exited %d, want 4:\n%s", res.code, res.stderr)
	}
	if !strings.Contains(res.stderr, "deadline exceeded") || !strings.Contains(res.stderr, "-resume") {
		t.Errorf("stderr lacks the deadline note:\n%s", res.stderr)
	}
}

// TestInterruptExit: the first SIGINT cancels cooperatively and the process
// exits 3 with a partial-results note.
func TestInterruptExit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess signal runs")
	}
	dir := t.TempDir()
	saveArtifacts(t, dir)
	// Full scale so the search cannot finish before the signal arrives;
	// cancellation is checked between search rounds, so the exit is prompt.
	cmd := exec.Command(binary(t), "-run", "MissQueueSecurity", "-scale", "full",
		"-checkpoint-dir", dir)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("interrupted run did not exit with an error: %v", err)
	}
	if code := ee.ExitCode(); code != 3 {
		t.Fatalf("interrupted run exited %d, want 3:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted, results are partial") {
		t.Errorf("stderr lacks the interrupt note:\n%s", errb.String())
	}
}

// TestUsageErrors pins the usage exit code, and a one-line diagnostic, for
// flag combinations and out-of-range budgets; each is refused before any
// experiment runs or any worker spawns.
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess runs")
	}
	for _, args := range [][]string{
		{"-resume"},
		{"-fault-plan", "kill-after-puts=1"},
		{"-checkpoint-dir", t.TempDir(), "-fault-plan", "bogus"},
		{"-run", "NoSuchExperiment"},
		{"-run", "Table3", "-mc-trials", "-5"},
		{"-run", "Figure5", "-workers", "-3"},
		{"-run", "Table3", "-attack-cap", "-7"},
		{"-role", "worker", "-fabric-dir", t.TempDir(), "-run", "Figure2", "-lease-ttl", "2ns"},
		{"-role", "worker", "-fabric-dir", t.TempDir(), "-run", "Figure2", "-fabric-poll", "0s"},
		// Traffic has 2 units: one past the bound, so a broken check
		// forks only a handful of workers.
		{"-role", "coordinator", "-fabric-dir", t.TempDir(), "-run", "Traffic", "-fabric-spawn", "3"},
		// Fabric flags without -role: the run would ignore them and run
		// in one process.
		{"-run", "Figure5", "-fabric-spawn", "3"},
		{"-run", "Figure5", "-fabric-dir", filepath.Join(t.TempDir(), "D"), "-worker-id", "x", "-lease-ttl", "1h"},
	} {
		res := runBin(t, args...)
		if res.code != 2 {
			t.Errorf("%v exited %d, want 2", args, res.code)
		}
		if n := strings.Count(res.stderr, "\n"); n != 1 {
			t.Errorf("%v printed %d stderr lines, want 1:\n%s", args, n, res.stderr)
		}
	}
}
