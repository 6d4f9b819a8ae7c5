package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"randfill/internal/checkpoint"
)

// testClock is a manually advanced clock shared by every process-in-a-test;
// the tests that use it never read the wall clock, so claim expiry is
// exact.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testPayload(name string, i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("payload-%s-%d|", name, i)), 4)
}

// testPlan is a pure fake plan: unit i writes testPayload(name, i).
func testPlan(name string, units int) Plan {
	meta := func(i int) checkpoint.Meta {
		return checkpoint.Meta{
			Experiment: name, Shard: i,
			Seed: 42 + uint64(i), ConfigHash: 0xfab1234, StreamVersion: 1,
		}
	}
	return Plan{
		Name:  name,
		Units: units,
		Meta:  meta,
		RunUnit: func(ctx context.Context, i int, store *checkpoint.Store) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return store.Put(meta(i), testPayload(name, i))
		},
	}
}

func openStore(t *testing.T, dir string) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return st
}

// newWorker builds a worker loop's state without running it, so a test can
// drive its scan, claim and renewal steps one at a time.
func newWorker(layout Layout, id string, plan Plan, store *checkpoint.Store, clk *testClock) *worker {
	return &worker{
		cfg:    WorkerConfig{Dir: layout.Root, ID: id, Plan: plan, Store: store, TTL: time.Minute, Poll: time.Millisecond},
		layout: layout, clock: clk.Now, metas: plan.Metas(),
	}
}

func prepared(t *testing.T) Layout {
	t.Helper()
	layout := Layout{Root: t.TempDir()}
	if err := layout.Prepare(); err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestClaimRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.claim")
	want := Claim{
		Owner: "worker-3", Deadline: 123456789,
		Unit: checkpoint.Meta{Experiment: "Figure2", Shard: 5, Seed: 7, ConfigHash: 0xdead, StreamVersion: 2},
	}
	if err := writeClaim(path, want, false, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readClaim(path)
	if err != nil || !ok {
		t.Fatalf("readClaim: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestTornClaimReadsAsAbsent: truncated, bit-flipped, garbage, and empty
// claim files must all read as absent — never as an error, never as a
// claim.
func TestTornClaimReadsAsAbsent(t *testing.T) {
	dir := t.TempDir()
	valid := encodeClaim(Claim{Owner: "w", Deadline: 10})
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", valid[:len(valid)-3]},
		{"bitflip", append(append([]byte{}, valid[:20]...), valid[20]^0x40)},
		{"garbage", []byte("not a claim at all")},
		{"empty", []byte{}},
		{"badmagic", append([]byte("WRONGMAG"), valid[8:]...)},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name+".claim")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, ok, err := readClaim(path)
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if ok {
			t.Errorf("%s: torn claim read as present: %+v", tc.name, c)
		}
	}
	// A missing file is equally absent.
	if _, ok, err := readClaim(filepath.Join(dir, "missing.claim")); ok || err != nil {
		t.Errorf("missing: ok=%v err=%v, want absent", ok, err)
	}
}

// TestSecondCoordinatorRefuses: a second coordinator on a fabric dir with a
// live coordinator lease must refuse with ErrCoordinatorHeld.
func TestSecondCoordinatorRefuses(t *testing.T) {
	layout := prepared(t)
	clk := newTestClock()
	if err := writeClaim(layout.CoordinatorLease(), Claim{
		Owner: "coord-A", Deadline: clk.Now().Add(time.Hour).UnixNano(),
	}, false, nil); err != nil {
		t.Fatal(err)
	}
	cfg := CoordinatorConfig{Dir: layout.Root, ID: "coord-B", TTL: time.Hour, Poll: time.Millisecond, Clock: clk.Now}
	if err := acquireCoordinator(layout, cfg, clk.Now); !errors.Is(err, ErrCoordinatorHeld) {
		t.Fatalf("second coordinator: got err %v, want ErrCoordinatorHeld", err)
	}
	// RunCoordinator surfaces the same refusal.
	cfg.Plan, cfg.Store = testPlan("X", 1), openStore(t, layout.CheckpointDir())
	if _, err := RunCoordinator(context.Background(), cfg); !errors.Is(err, ErrCoordinatorHeld) {
		t.Fatalf("RunCoordinator: got err %v, want ErrCoordinatorHeld", err)
	}
}

// TestCoordinatorTakesOverExpired: an expired or torn coordinator lease is
// taken over, and the lease then names the new coordinator.
func TestCoordinatorTakesOverExpired(t *testing.T) {
	layout := prepared(t)
	clk := newTestClock()
	if err := writeClaim(layout.CoordinatorLease(), Claim{
		Owner: "coord-A", Deadline: clk.Now().Add(-time.Second).UnixNano(),
	}, false, nil); err != nil {
		t.Fatal(err)
	}
	cfg := CoordinatorConfig{Dir: layout.Root, ID: "coord-B", TTL: time.Hour, Poll: time.Millisecond, Clock: clk.Now}
	if err := acquireCoordinator(layout, cfg, clk.Now); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	c, ok, err := readClaim(layout.CoordinatorLease())
	if err != nil || !ok || c.Owner != "coord-B" || c.Deadline != clk.Now().Add(time.Hour).UnixNano() {
		t.Fatalf("lease after takeover = %+v ok=%v err=%v, want coord-B's for one TTL", c, ok, err)
	}
	// A torn coordinator lease reads as absent and is taken over too.
	if err := os.WriteFile(layout.CoordinatorLease(), []byte("torn!"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.ID = "coord-C"
	if err := acquireCoordinator(layout, cfg, clk.Now); err != nil {
		t.Fatalf("takeover of a torn lease: %v", err)
	}
}

// TestExpiredThenRenewedRace: a claim that expired but was renewed by its
// holder before anyone took it over is live again, and other workers leave
// the unit alone. Once another worker takes over an expired claim, the old
// holder's renewal backs off instead of clobbering the live claim.
func TestExpiredThenRenewedRace(t *testing.T) {
	layout := prepared(t)
	clk := newTestClock()
	plan := testPlan("Race", 1)
	store := openStore(t, layout.CheckpointDir())
	a := newWorker(layout, "A", plan, store, clk)
	b := newWorker(layout, "B", plan, store, clk)

	if ok, err := a.claim(0); err != nil || !ok {
		t.Fatalf("A's claim: ok=%v err=%v", ok, err)
	}
	clk.Advance(2 * time.Minute) // A's claim expires unrenewed
	if ok, err := a.claim(0); err != nil || !ok {
		t.Fatalf("A could not renew its expired, untaken claim: ok=%v err=%v", ok, err)
	}
	if idx, done, err := b.next(); err != nil || idx != -1 || done {
		t.Fatalf("B's scan after A's renewal: idx=%d done=%v err=%v, want nothing to take", idx, done, err)
	}

	clk.Advance(2 * time.Minute) // expired again; this time B takes it over
	if idx, _, err := b.next(); err != nil || idx != 0 {
		t.Fatalf("B's scan of an expired claim: idx=%d err=%v, want unit 0", idx, err)
	}
	if ok, err := b.claim(0); err != nil || !ok {
		t.Fatalf("B's takeover: ok=%v err=%v", ok, err)
	}
	if ok, err := a.claim(0); err != nil || ok {
		t.Fatalf("A renewed over B's live claim: ok=%v err=%v", ok, err)
	}
	if c, ok, _ := readClaim(layout.UnitClaim(plan.Meta(0).FileBase())); !ok || c.Owner != "B" {
		t.Fatalf("claim after A's renewal attempt = %+v ok=%v, want B's", c, ok)
	}
}

// TestExpiredClaimTakenOver: a dead worker's claim expires, a live worker
// takes the unit over and runs it, and the coordinator's watch counts the
// lost claim exactly once — whether it sees the expiry or only the new
// owner.
func TestExpiredClaimTakenOver(t *testing.T) {
	layout := prepared(t)
	clk := newTestClock()
	plan := testPlan("Takeover", 1)
	meta := plan.Meta(0)
	store := openStore(t, layout.CheckpointDir())
	path := layout.UnitClaim(meta.FileBase())
	if err := writeClaim(path, Claim{Owner: "dead", Deadline: clk.Now().Add(time.Minute).UnixNano(), Unit: meta}, false, nil); err != nil {
		t.Fatal(err)
	}
	var watch claimWatch
	observe := func() bool {
		t.Helper()
		c, ok, err := readClaim(path)
		if err != nil || !ok {
			t.Fatalf("claim unreadable: ok=%v err=%v", ok, err)
		}
		_, lost := watch.observe(c, clk.Now())
		return lost
	}
	if observe() {
		t.Fatal("live claim counted as lost")
	}
	if idx, done, err := newWorker(layout, "live", plan, store, clk).next(); err != nil || idx != -1 || done {
		t.Fatalf("scan of a live foreign-owner claim: idx=%d done=%v err=%v, want nothing to take", idx, done, err)
	}

	clk.Advance(2 * time.Minute)
	if !observe() {
		t.Fatal("expired claim not counted")
	}
	if observe() {
		t.Fatal("expired claim counted twice")
	}
	res, err := RunWorker(context.Background(), WorkerConfig{
		Dir: layout.Root, ID: "live", Plan: plan, Store: store,
		TTL: time.Minute, Poll: time.Millisecond, Clock: clk.Now,
	})
	if err != nil || res.Completed != 1 {
		t.Fatalf("takeover run: res=%+v err=%v", res, err)
	}
	if _, ok, _ := store.Get(meta); !ok {
		t.Fatal("taken-over unit not checkpointed")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished unit's claim not dropped (stat err %v)", err)
	}

	// A coordinator that missed the expiry still counts the takeover once.
	var late claimWatch
	far := clk.Now().Add(time.Hour).UnixNano()
	for i, step := range []struct {
		owner string
		lost  bool
	}{{"dead", false}, {"live", true}, {"live", false}} {
		if _, lost := late.observe(Claim{Owner: step.owner, Deadline: far, Unit: meta}, clk.Now()); lost != step.lost {
			t.Errorf("observation %d (%s): lost=%v, want %v", i, step.owner, lost, step.lost)
		}
	}
}

// divergeFirst is a store hook that publishes a different frame for the
// unit just before the worker's own Put — a straggler whose unit broke the
// purity contract and finished first.
type divergeFirst struct{ other *checkpoint.Store }

func (h divergeFirst) BeforePut(m checkpoint.Meta) error {
	return h.other.Put(m, []byte("divergent bytes"))
}
func (divergeFirst) AfterPut(checkpoint.Meta, string) {}

// TestPurityViolationDetected: a worker whose result differs from the frame
// the store already holds fails with checkpoint.ErrPurity, and the first
// frame stays.
func TestPurityViolationDetected(t *testing.T) {
	layout := prepared(t)
	plan := testPlan("Pure", 1)
	store := openStore(t, layout.CheckpointDir())
	store.Hooks = divergeFirst{other: openStore(t, layout.CheckpointDir())}
	_, err := RunWorker(context.Background(), WorkerConfig{
		Dir: layout.Root, ID: "w", Plan: plan, Store: store,
		TTL: time.Minute, Poll: time.Millisecond, Clock: newTestClock().Now,
	})
	if !errors.Is(err, checkpoint.ErrPurity) {
		t.Fatalf("worker err = %v, want checkpoint.ErrPurity", err)
	}
	if got, ok, _ := store.Get(plan.Meta(0)); !ok || string(got) != "divergent bytes" {
		t.Fatalf("store holds %q ok=%v, want the first writer's frame", got, ok)
	}
}

// TestAbortedUnitsDispatchFirst: a worker takes units with aborted markers
// before the rest, and clears each marker once its unit is checkpointed.
func TestAbortedUnitsDispatchFirst(t *testing.T) {
	layout := prepared(t)
	plan := testPlan("Abort", 4)
	store := openStore(t, layout.CheckpointDir())
	// Unit 2 was in flight when its process was hard-killed.
	tracker := NewInFlight("dead")
	tracker.Observe(plan.Meta(2), false)
	tracker.WriteAborted(store.Dir())

	var order []int
	run := plan.RunUnit
	plan.RunUnit = func(ctx context.Context, i int, st *checkpoint.Store) error {
		order = append(order, i)
		return run(ctx, i, st)
	}
	if _, err := RunWorker(context.Background(), WorkerConfig{
		Dir: layout.Root, ID: "w1", Plan: plan, Store: store,
		TTL: time.Minute, Poll: time.Millisecond, Clock: newTestClock().Now,
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 0 1 3]" {
		t.Errorf("run order = %v, want the aborted unit 2 first: [2 0 1 3]", order)
	}
	if got := ScanAborted(store.Dir()); len(got) != 0 {
		t.Errorf("aborted marker not cleared after its unit finished: %+v", got)
	}
}

// TestWorkerIgnoresForeignClaim: a live claim under a unit's file name that
// names another run's identity (same file stem, different seed) does not
// hold the unit, so the worker runs it.
func TestWorkerIgnoresForeignClaim(t *testing.T) {
	layout := prepared(t)
	plan := testPlan("Foreign", 2)
	store := openStore(t, layout.CheckpointDir())
	foreign := plan.Meta(0)
	foreign.Seed ^= 0xff // someone else's run
	if err := writeClaim(layout.UnitClaim(foreign.FileBase()), Claim{
		Owner: "elsewhere", Deadline: 1 << 62, Unit: foreign,
	}, false, nil); err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), WorkerConfig{
		Dir: layout.Root, ID: "w1", Plan: plan, Store: store,
		TTL: time.Minute, Poll: time.Millisecond, Clock: newTestClock().Now,
	})
	if err != nil || res.Completed != 2 {
		t.Fatalf("res=%+v err=%v, want both units run despite the foreign claim", res, err)
	}
}

// renderStore concatenates every unit's payload in unit order: the fake
// plan's stand-in for an experiment table rendered from the store.
func renderStore(t *testing.T, plan Plan, st *checkpoint.Store) []byte {
	t.Helper()
	var out []byte
	for i := 0; i < plan.Units; i++ {
		payload, ok, err := st.Get(plan.Meta(i))
		if err != nil || !ok {
			t.Fatalf("unit %d not checkpointed: ok=%v err=%v", i, ok, err)
		}
		out = append(out, payload...)
	}
	return out
}

// soloStore runs every unit of plan in one store, in unit order.
func soloStore(t *testing.T, plan Plan) *checkpoint.Store {
	t.Helper()
	st := openStore(t, t.TempDir())
	for i := 0; i < plan.Units; i++ {
		if err := plan.RunUnit(context.Background(), i, st); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// sameFrames checks every unit's checkpoint file in got against want's.
func sameFrames(t *testing.T, plan Plan, got, want *checkpoint.Store) {
	t.Helper()
	for i := 0; i < plan.Units; i++ {
		m := plan.Meta(i)
		w, err := os.ReadFile(want.Path(m))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(got.Path(m))
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("unit %d: fabric checkpoint differs from solo run", i)
		}
	}
}

// TestEndToEndInProcess runs a coordinator and two workers as goroutines
// over one fabric dir and checks the store ends up byte-identical to a
// solo run of the same plan.
func TestEndToEndInProcess(t *testing.T) {
	plan := testPlan("E2E", 6)
	solo := soloStore(t, plan)

	layout := Layout{Root: t.TempDir()}
	clk := newTestClock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	workerErr := make([]error, 2)
	for w := range workerErr {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, workerErr[w] = RunWorker(ctx, WorkerConfig{
				Dir: layout.Root, ID: fmt.Sprintf("w%d", w), Plan: plan,
				Store: openStore(t, layout.CheckpointDir()),
				TTL:   time.Minute, Poll: 5 * time.Millisecond, Clock: clk.Now,
			})
		}(w)
	}
	res, err := RunCoordinator(ctx, CoordinatorConfig{
		Dir: layout.Root, ID: "coord", Plan: plan,
		Store: openStore(t, layout.CheckpointDir()),
		TTL:   time.Minute, Poll: 5 * time.Millisecond, Clock: clk.Now,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	for w, err := range workerErr {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if res.Redispatched != 0 {
		t.Errorf("re-dispatched %d units with no claim ever expiring", res.Redispatched)
	}
	if _, err := os.Stat(layout.DonePath()); err != nil {
		t.Errorf("done marker missing: %v", err)
	}
	sameFrames(t, plan, openStore(t, layout.CheckpointDir()), solo)
	// Finished units' claims were dropped.
	for i := 0; i < plan.Units; i++ {
		if _, err := os.Stat(layout.UnitClaim(plan.Meta(i).FileBase())); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("unit %d claim not dropped", i)
		}
	}
}

// TestClaimRace races four workers and a coordinator on one fabric
// directory under a short real-clock TTL. Worker w0 claims a unit and then
// stalls without renewing until every unit is checkpointed, so the others
// must take its expired claim over; w0 then runs the unit anyway. Every
// fourth unit runs for half a TTL, so claims are renewed while other
// workers scan them. Every unit must be checkpointed, and the table
// rendered from the store must be byte-identical to a solo run's. The
// duplicate executions this costs — w0's, plus any from workers racing on
// the same claim — are counted.
func TestClaimRace(t *testing.T) {
	const workers, ttl = 4, 60 * time.Millisecond
	base := testPlan("ClaimRace", 24)
	solo := soloStore(t, base)
	runs := make([]atomic.Int32, base.Units)
	plan := base
	plan.RunUnit = func(ctx context.Context, i int, st *checkpoint.Store) error {
		runs[i].Add(1)
		if i%4 == 0 {
			time.Sleep(ttl / 2) // long enough for a renewal at TTL/3
		}
		return base.RunUnit(ctx, i, st)
	}

	layout := Layout{Root: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	allDone := func(st *checkpoint.Store) bool {
		done, err := st.Complete(plan.Metas())
		if err != nil {
			return false
		}
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	stalled := make(chan struct{})
	for w := range errs {
		cfg := WorkerConfig{
			Dir: layout.Root, ID: fmt.Sprintf("w%d", w), Plan: plan,
			Store: openStore(t, layout.CheckpointDir()),
			TTL:   ttl, Poll: time.Millisecond,
		}
		if w == 0 {
			cfg.BeforeUnit = func(n int) {
				if n != 1 {
					return
				}
				close(stalled)
				for ctx.Err() == nil && !allDone(cfg.Store) {
					time.Sleep(time.Millisecond)
				}
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = RunWorker(ctx, cfg)
		}(w)
		if w == 0 {
			<-stalled // w0 holds its claim before anyone else starts
		}
	}
	res, err := RunCoordinator(ctx, CoordinatorConfig{
		Dir: layout.Root, ID: "coord", Plan: plan,
		Store: openStore(t, layout.CheckpointDir()),
		TTL:   time.Second, Poll: time.Millisecond,
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker w%d: %v", w, err)
		}
	}

	store := openStore(t, layout.CheckpointDir())
	if got, want := renderStore(t, plan, store), renderStore(t, plan, solo); !bytes.Equal(got, want) {
		t.Errorf("table rendered from the raced store differs from the solo run's")
	}
	sameFrames(t, plan, store, solo)
	dups := 0
	for i := range runs {
		n := int(runs[i].Load())
		if n < 1 {
			t.Errorf("unit %d never ran", i)
		}
		dups += n - 1
	}
	if dups == 0 {
		t.Error("no unit ran twice, although w0 ran a unit the others had taken over")
	}
	t.Logf("%d duplicate executions over %d units; the coordinator counted %d re-dispatches", dups, plan.Units, res.Redispatched)
}

// TestJoinMergesPartialRuns: two disjoint (plus overlapping) partial stores
// join into a store byte-identical to a full run; a same-identity
// different-bytes conflict aborts.
func TestJoinMergesPartialRuns(t *testing.T) {
	const units = 4
	plan := testPlan("Join", units)

	full := openStore(t, t.TempDir())
	for i := 0; i < units; i++ {
		if err := plan.RunUnit(context.Background(), i, full); err != nil {
			t.Fatal(err)
		}
	}

	// Partial run A has units 0..2, partial run B has 2..3 (unit 2 overlaps).
	dirA, dirB := t.TempDir(), t.TempDir()
	a, b := openStore(t, dirA), openStore(t, dirB)
	for i := 0; i <= 2; i++ {
		if err := plan.RunUnit(context.Background(), i, a); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < units; i++ {
		if err := plan.RunUnit(context.Background(), i, b); err != nil {
			t.Fatal(err)
		}
	}
	// A torn file in B must be skipped, not adopted.
	if err := os.WriteFile(filepath.Join(dirB, "torn.ckpt"), []byte("shred"), 0o644); err != nil {
		t.Fatal(err)
	}

	dst := openStore(t, t.TempDir())
	rep, err := Join(dst, []string{dirA, dirB})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if rep.Adopted != units || rep.AlreadyPresent != 1 || rep.TornSkipped != 1 {
		t.Errorf("report = %+v, want %d adopted, 1 already present, 1 torn skipped", rep, units)
	}
	for i := 0; i < units; i++ {
		m := plan.Meta(i)
		want, _ := os.ReadFile(full.Path(m))
		got, err := os.ReadFile(dst.Path(m))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("unit %d: joined store differs from full run (err=%v)", i, err)
		}
	}

	// Conflict: same identity, different verified bytes.
	evil := openStore(t, t.TempDir())
	if err := evil.Put(plan.Meta(0), []byte("divergent")); err != nil {
		t.Fatal(err)
	}
	if _, err := Join(dst, []string{evil.Dir()}); !errors.Is(err, checkpoint.ErrPurity) {
		t.Fatalf("conflicting join: err = %v, want checkpoint.ErrPurity", err)
	}

	// A fabric root resolves to its ckpt/ subdirectory.
	fabDir := t.TempDir()
	fl := Layout{Root: fabDir}
	if err := fl.Prepare(); err != nil {
		t.Fatal(err)
	}
	fs := openStore(t, fl.CheckpointDir())
	if err := plan.RunUnit(context.Background(), 0, fs); err != nil {
		t.Fatal(err)
	}
	dst2 := openStore(t, t.TempDir())
	rep, err = Join(dst2, []string{fabDir})
	if err != nil || rep.Adopted != 1 {
		t.Fatalf("fabric-root join: rep=%+v err=%v", rep, err)
	}
}

// TestAbortedMarkerLifecycle covers WriteAborted/ScanAborted/ClearAborted.
func TestAbortedMarkerLifecycle(t *testing.T) {
	storeDir := t.TempDir()
	plan := testPlan("Markers", 3)
	tr := NewInFlight("w9")
	tr.Observe(plan.Meta(1), false)
	tr.Observe(plan.Meta(2), false)
	tr.Observe(plan.Meta(2), true) // finished before the kill
	tr.WriteAborted(storeDir)

	got := ScanAborted(storeDir)
	if len(got) != 1 || got[0] != plan.Meta(1) {
		t.Fatalf("ScanAborted = %+v, want exactly unit 1", got)
	}
	// Torn markers are skipped.
	if err := os.WriteFile(filepath.Join(AbortDir(storeDir), "torn.aborted"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ScanAborted(storeDir); len(got) != 1 {
		t.Fatalf("torn marker not skipped: %+v", got)
	}
	ClearAborted(storeDir, plan.Meta(1))
	if got := ScanAborted(storeDir); len(got) != 0 {
		t.Fatalf("marker not cleared: %+v", got)
	}
}

// TestRejectsTTLBelowRenewal: a TTL whose TTL/3 renewal interval rounds to
// zero is a config error for both roles, never a ticker panic. The context
// is already canceled, so a role that accepted the TTL returns
// context.Canceled instead of running.
func TestRejectsTTLBelowRenewal(t *testing.T) {
	layout := prepared(t)
	plan := testPlan("ttl", 1)
	store := openStore(t, layout.CheckpointDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	accepted := func(err error) bool { return err == nil || errors.Is(err, context.Canceled) }
	for _, ttl := range []time.Duration{-time.Second, 0, 1, MinTTL - 1} {
		if _, err := RunWorker(ctx, WorkerConfig{
			Dir: layout.Root, ID: "w", Plan: plan, Store: store, TTL: ttl, Poll: time.Millisecond,
		}); accepted(err) {
			t.Errorf("RunWorker accepted TTL %v", ttl)
		}
		if _, err := RunCoordinator(ctx, CoordinatorConfig{
			Dir: layout.Root, ID: "c", Plan: plan, Store: store, TTL: ttl, Poll: time.Millisecond,
		}); accepted(err) {
			t.Errorf("RunCoordinator accepted TTL %v", ttl)
		}
	}
	if _, err := RunWorker(ctx, WorkerConfig{
		Dir: layout.Root, ID: "w", Plan: plan, Store: store, TTL: MinTTL, Poll: time.Millisecond,
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunWorker at MinTTL: %v, want the canceled context", err)
	}
}
