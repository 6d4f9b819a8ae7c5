package faultinject

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/rng"
)

func TestParseEmpty(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || p != nil {
		t.Fatalf("Parse(empty) = %v, %v; want nil, nil", p, err)
	}
}

func TestParseClauses(t *testing.T) {
	p, err := Parse("kill-after-puts=3, fail-put=1,torn-put=2,corrupt-put=4,delay-put=5:250ms,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.KillAfterPuts != 3 || p.FailPut != 1 || p.TornPut != 2 || p.CorruptPut != 4 {
		t.Fatalf("parsed %+v", p)
	}
	if p.DelayPut != 5 || p.Delay != 250*time.Millisecond || p.Seed != 9 {
		t.Fatalf("parsed %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1", "kill-after-puts", "kill-after-puts=x", "fail-put=-1",
		"delay-put=1", "delay-put=1:xyz", "delay-put=x:1s",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
}

func meta(shard int) checkpoint.Meta {
	return checkpoint.Meta{Experiment: "t", Shard: shard, ConfigHash: 1, StreamVersion: rng.StreamVersion}
}

// storeWithPlan opens a store in a temp dir with the plan hooked in.
func storeWithPlan(t *testing.T, p *Plan) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Hooks = p
	return st
}

func TestFailPutFailsExactlyTheNthWrite(t *testing.T) {
	p, err := Parse("fail-put=2")
	if err != nil {
		t.Fatal(err)
	}
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), []byte("a")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	if err := st.Put(meta(1), []byte("b")); err == nil {
		t.Fatal("put 2 should have failed")
	}
	if err := st.Put(meta(2), []byte("c")); err != nil {
		t.Fatalf("put 3: %v", err)
	}
	// The failed shard left no file behind and reads as missing.
	if _, ok, _ := st.Get(meta(1)); ok {
		t.Fatal("failed put produced a readable checkpoint")
	}
	if _, ok, _ := st.Get(meta(2)); !ok {
		t.Fatal("put after the injected failure was lost")
	}
}

// TestFailPutNumbersConcurrentPuts: two Puts in flight at once, neither
// landed yet (concurrent workers), take distinct numbers, so fail-put=2
// still fails exactly one of them.
func TestFailPutNumbersConcurrentPuts(t *testing.T) {
	p, err := Parse("fail-put=2")
	if err != nil {
		t.Fatal(err)
	}
	first, second := p.BeforePut(meta(0)), p.BeforePut(meta(1))
	if first != nil || second == nil {
		t.Fatalf("overlapping puts: first err=%v, second err=%v; want only the second to fail", first, second)
	}
}

func TestTornPutIsDetectedOnGet(t *testing.T) {
	p, err := Parse("torn-put=1")
	if err != nil {
		t.Fatal(err)
	}
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), []byte("accumulator bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(meta(0)); ok || err != nil {
		t.Fatalf("torn checkpoint: ok=%v err=%v, want missing", ok, err)
	}
}

func TestCorruptPutIsDetectedOnGet(t *testing.T) {
	p, err := Parse("corrupt-put=1,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), []byte("accumulator bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(meta(0)); ok || err != nil {
		t.Fatalf("corrupt checkpoint: ok=%v err=%v, want missing", ok, err)
	}
}

func TestKillAfterPuts(t *testing.T) {
	p, err := Parse("kill-after-puts=2")
	if err != nil {
		t.Fatal(err)
	}
	exited := -1
	p.exit = func(code int) { exited = code }
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), nil); err != nil || exited != -1 {
		t.Fatalf("put 1: err=%v exited=%d", err, exited)
	}
	if err := st.Put(meta(1), nil); err != nil {
		t.Fatal(err)
	}
	if exited != KillExitCode {
		t.Fatalf("exit code %d, want %d", exited, KillExitCode)
	}
	// Both checkpoints were durably published before the "crash".
	for s := 0; s < 2; s++ {
		if _, ok, _ := st.Get(meta(s)); !ok {
			t.Errorf("shard %d checkpoint lost in crash", s)
		}
	}
}

// TestKillAfterPutsHoldsBackLaterPuts: a Put admitted after the Nth waits
// for the exit instead of publishing, so a crash leaves exactly N
// checkpoints even when concurrent workers put at the same moment.
func TestKillAfterPutsHoldsBackLaterPuts(t *testing.T) {
	p, err := Parse("kill-after-puts=1")
	if err != nil {
		t.Fatal(err)
	}
	p.exit = func(int) {} // the real exit would end the held-back Put too
	st := storeWithPlan(t, p)
	if err := st.Put(meta(0), nil); err != nil {
		t.Fatal(err)
	}
	go func() { _ = st.Put(meta(1), nil) }() // never returns
	for p.admitted.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok, _ := st.Get(meta(1)); ok {
		t.Fatal("a Put past the kill point published a checkpoint")
	}
	if int(p.puts.Load()) != 1 {
		t.Fatalf("observed %d puts, want 1", int(p.puts.Load()))
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	var p Plan
	st := storeWithPlan(t, &p)
	for s := 0; s < 5; s++ {
		if err := st.Put(meta(s), []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	if int(p.puts.Load()) != 5 {
		t.Fatalf("observed %d puts, want 5", int(p.puts.Load()))
	}
}

func TestDamageIsBestEffortOnMissingFile(t *testing.T) {
	var p Plan
	p.corrupt("/nonexistent/file")
	p.tear("/nonexistent/file")
}

func TestParseProcessClauses(t *testing.T) {
	p, err := Parse("kill-worker-after-units=2,stall-worker=1:300ms,torn-lease=3,clock-skew=-150ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.KillAfterUnits != 2 || p.StallUnit != 1 || p.Stall != 300*time.Millisecond {
		t.Fatalf("parsed %+v", p)
	}
	if p.TornLease != 3 || p.ClockSkew != -150*time.Millisecond {
		t.Fatalf("parsed %+v", p)
	}
}

func TestParseProcessClauseErrors(t *testing.T) {
	for _, spec := range []string{
		"kill-worker-after-units=x", "kill-worker-after-units=-1",
		"stall-worker=1", "stall-worker=x:1s", "stall-worker=1:zz",
		"stall-worker=0:2m", // workers number units from 1: unit 0 never stalls
		"torn-lease=x", "clock-skew=notadur",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
}

func TestKillAfterUnit(t *testing.T) {
	p, err := Parse("kill-worker-after-units=2")
	if err != nil {
		t.Fatal(err)
	}
	exited := -1
	p.exit = func(code int) { exited = code }
	p.KillAfterUnit(1)
	if exited != -1 {
		t.Fatalf("killed after 1 unit, want survive until 2")
	}
	p.KillAfterUnit(2)
	if exited != KillExitCode {
		t.Fatalf("exit code %d, want %d", exited, KillExitCode)
	}
}

func TestAfterLeaseWriteTearsExactlyTheNth(t *testing.T) {
	p, err := Parse("torn-lease=2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("0123456789abcdef"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := write("one.lease")
	p.AfterLeaseWrite(p1)
	p2 := write("two.lease")
	p.AfterLeaseWrite(p2)
	p3 := write("three.lease")
	p.AfterLeaseWrite(p3)
	size := func(path string) int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	if size(p1) != 16 || size(p3) != 16 {
		t.Error("untargeted lease writes were damaged")
	}
	if size(p2) != 8 {
		t.Errorf("2nd lease write size %d, want torn to 8", size(p2))
	}
	if int(p.leaseWrites.Load()) != 3 {
		t.Errorf("lease writes = %d, want 3", int(p.leaseWrites.Load()))
	}
}

func TestStallBeforeUnitOnlyTargetsItsUnit(t *testing.T) {
	p, err := Parse("stall-worker=3:10ms")
	if err != nil {
		t.Fatal(err)
	}
	// Non-target units return immediately; the target sleeps (we only
	// assert it returns — the duration is the OS's business).
	p.StallBeforeUnit(1)
	p.StallBeforeUnit(2)
	p.StallBeforeUnit(3)
}
