package checkpoint_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"randfill/internal/checkpoint"
	"randfill/internal/rng"
)

func testMeta() checkpoint.Meta {
	return checkpoint.Meta{
		Experiment:    "Figure2/collect",
		Shard:         3,
		Seed:          0xdeadbeef,
		ConfigHash:    checkpoint.Hash("quick", "seed=1"),
		StreamVersion: rng.StreamVersion,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testMeta()
	payload := []byte{1, 2, 3, 0xff, 0}
	if err := st.Put(m, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(m)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %v, want %v", got, payload)
	}
}

func TestGetMissing(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(testMeta()); ok || err != nil {
		t.Fatalf("missing shard: ok=%v err=%v", ok, err)
	}
}

func TestEmptyPayload(t *testing.T) {
	st, _ := checkpoint.Open(t.TempDir())
	m := testMeta()
	if err := st.Put(m, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(m)
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty payload: got %v ok=%v err=%v", got, ok, err)
	}
}

// shardFile locates the single checkpoint file in the store's directory.
func shardFile(t *testing.T, st *checkpoint.Store) string {
	t.Helper()
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("want exactly 1 checkpoint file, have %d", len(ents))
	}
	return filepath.Join(st.Dir(), ents[0].Name())
}

func TestTornFileReadsAsMissing(t *testing.T) {
	st, _ := checkpoint.Open(t.TempDir())
	m := testMeta()
	if err := st.Put(m, []byte("accumulator state")); err != nil {
		t.Fatal(err)
	}
	path := shardFile(t, st)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: the file stops half-way through the body.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(m); ok || err != nil {
		t.Fatalf("torn file: ok=%v err=%v, want missing", ok, err)
	}
}

func TestBitFlipReadsAsMissing(t *testing.T) {
	st, _ := checkpoint.Open(t.TempDir())
	m := testMeta()
	if err := st.Put(m, []byte("accumulator state")); err != nil {
		t.Fatal(err)
	}
	path := shardFile(t, st)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit past the header.
	data[len(data)-3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get(m); ok || err != nil {
		t.Fatalf("bit-flipped file: ok=%v err=%v, want missing", ok, err)
	}
}

func TestMetaMismatchReadsAsMissing(t *testing.T) {
	st, _ := checkpoint.Open(t.TempDir())
	m := testMeta()
	if err := st.Put(m, []byte("x")); err != nil {
		t.Fatal(err)
	}
	cases := []func(*checkpoint.Meta){
		func(m *checkpoint.Meta) { m.Seed++ },
		func(m *checkpoint.Meta) { m.StreamVersion++ },
	}
	for i, mutate := range cases {
		q := m
		mutate(&q)
		if _, ok, _ := st.Get(q); ok {
			t.Errorf("case %d: mismatched meta loaded a checkpoint", i)
		}
	}
	// A different config hash or shard resolves to a different file name, so
	// it is missing by construction.
	q := m
	q.ConfigHash++
	if _, ok, _ := st.Get(q); ok {
		t.Error("different config hash loaded a checkpoint")
	}
}

// TestPutFirstWriterWins pins the store's one write rule: an identical
// re-put is a no-op, different bytes fail with ErrPurity and keep the first
// frame, and a torn file is replaced.
func TestPutFirstWriterWins(t *testing.T) {
	st, _ := checkpoint.Open(t.TempDir())
	m := testMeta()
	if err := st.Put(m, []byte("first")); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(st.Path(m))
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(st.Path(m))
	if err != nil {
		t.Fatal(err)
	}

	if err := st.Put(m, []byte("first")); err != nil {
		t.Fatalf("identical re-put: %v", err)
	}
	if again, err := os.Stat(st.Path(m)); err != nil || !os.SameFile(info, again) {
		t.Fatalf("identical re-put replaced the file (err %v)", err)
	}

	if err := st.Put(m, []byte("second")); !errors.Is(err, checkpoint.ErrPurity) {
		t.Fatalf("different re-put: err = %v, want ErrPurity", err)
	}
	if got, err := os.ReadFile(st.Path(m)); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("different re-put changed the stored frame (err %v)", err)
	}

	if err := os.Truncate(st.Path(m), int64(len(first)/2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(m, []byte("second")); err != nil {
		t.Fatalf("put over a torn file: %v", err)
	}
	if got, ok, err := st.Get(m); err != nil || !ok || string(got) != "second" {
		t.Fatalf("torn file not replaced: got %q ok=%v err=%v", got, ok, err)
	}
}

func TestShardsAndExperimentsAreDistinctFiles(t *testing.T) {
	st, _ := checkpoint.Open(t.TempDir())
	a := testMeta()
	b := a
	b.Shard = 4
	c := a
	c.Experiment = "Table3/cells"
	for i, m := range []checkpoint.Meta{a, b, c} {
		if err := st.Put(m, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range []checkpoint.Meta{a, b, c} {
		got, ok, err := st.Get(m)
		if err != nil || !ok || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("meta %d: got %v ok=%v err=%v", i, got, ok, err)
		}
	}
}

func TestHashIsOrderAndBoundarySensitive(t *testing.T) {
	if checkpoint.Hash("a", "b") == checkpoint.Hash("b", "a") {
		t.Error("hash ignores order")
	}
	if checkpoint.Hash("ab", "c") == checkpoint.Hash("a", "bc") {
		t.Error("hash ignores part boundaries")
	}
	if checkpoint.Hash("a") != checkpoint.Hash("a") {
		t.Error("hash not deterministic")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := checkpoint.Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// TestScanInventoriesCompleteAndTorn: Scan classifies every *.ckpt file in
// the directory — verified frames carry their Meta, torn frames are
// reported (not hidden) so a coordinator can count lost work.
func TestScanInventoriesCompleteAndTorn(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := testMeta()
	m2 := testMeta()
	m2.Shard = 5
	if err := st.Put(m1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(m2, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	// Tear the second file and drop an unrelated non-ckpt file.
	if err := os.Truncate(st.Path(m2), 7); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Scan found %d entries, want 2", len(entries))
	}
	var complete, torn int
	for _, e := range entries {
		switch e.State {
		case checkpoint.ScanComplete:
			complete++
			if e.Meta != m1 {
				t.Errorf("complete entry meta %+v, want %+v", e.Meta, m1)
			}
		case checkpoint.ScanTorn:
			torn++
			if e.Path != st.Path(m2) {
				t.Errorf("torn entry path %s, want %s", e.Path, st.Path(m2))
			}
		}
	}
	if complete != 1 || torn != 1 {
		t.Fatalf("complete=%d torn=%d, want 1/1", complete, torn)
	}
}

// TestScanForeign: an entry recorded under a different config hash verifies
// (it is a real checkpoint) but is foreign to this run's identity, so this
// run neither counts it done nor loads it.
func TestScanForeign(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mine := testMeta()
	other := mine
	other.ConfigHash = checkpoint.Hash("full", "seed=2")
	if err := st.Put(other, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	entries, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].State != checkpoint.ScanComplete || entries[0].Meta != other {
		t.Fatalf("entries = %+v, want one complete entry for the other config", entries)
	}
	done, err := st.Complete([]checkpoint.Meta{mine, other})
	if err != nil {
		t.Fatal(err)
	}
	if done[0] || !done[1] {
		t.Errorf("Complete = %v, want [false true]", done)
	}
	if _, ok, err := st.Get(mine); ok || err != nil {
		t.Errorf("Get(mine) = ok %v, err %v; want a miss", ok, err)
	}
}

// TestComplete folds Scan against a unit plan: only exact-identity,
// verifying checkpoints count as done.
func TestComplete(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]checkpoint.Meta, 4)
	for i := range metas {
		metas[i] = testMeta()
		metas[i].Shard = i
	}
	if err := st.Put(metas[1], []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(metas[2], []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.Path(metas[2]), 3); err != nil {
		t.Fatal(err)
	}
	done, err := st.Complete(metas)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, false}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("Complete[%d] = %v, want %v", i, done[i], want[i])
		}
	}
}

// TestAdoptFrame: a verified frame from another directory merges under its
// canonical name; torn frames are rejected; byte-identical duplicates are
// no-ops; conflicting bytes for one identity are a hard error.
func TestAdoptFrame(t *testing.T) {
	src, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dst, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testMeta()
	if err := src.Put(m, []byte("result")); err != nil {
		t.Fatal(err)
	}
	frame, err := os.ReadFile(src.Path(m))
	if err != nil {
		t.Fatal(err)
	}

	got, res, err := dst.AdoptFrame(frame)
	if err != nil || res != checkpoint.Adopted || got != m {
		t.Fatalf("first adopt: meta=%+v res=%v err=%v", got, res, err)
	}
	if payload, ok, err := dst.Get(m); err != nil || !ok || !bytes.Equal(payload, []byte("result")) {
		t.Fatalf("adopted checkpoint not readable: ok=%v err=%v payload=%q", ok, err, payload)
	}

	if _, res, err := dst.AdoptFrame(frame); err != nil || res != checkpoint.AlreadyPresent {
		t.Fatalf("duplicate adopt: res=%v err=%v", res, err)
	}

	if _, res, err := dst.AdoptFrame(frame[:len(frame)-2]); err != nil || res != checkpoint.RejectedTorn {
		t.Fatalf("torn adopt: res=%v err=%v", res, err)
	}

	// Same identity, different payload: purity violation must error loudly.
	src2, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src2.Put(m, []byte("OTHER!")); err != nil {
		t.Fatal(err)
	}
	conflict, err := os.ReadFile(src2.Path(m))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.AdoptFrame(conflict); !errors.Is(err, checkpoint.ErrPurity) {
		t.Fatalf("conflicting adopt: err = %v, want ErrPurity", err)
	}

	// A torn file already in the store is replaced by a verifying frame.
	if err := os.Truncate(dst.Path(m), 5); err != nil {
		t.Fatal(err)
	}
	if _, res, err := dst.AdoptFrame(frame); err != nil || res != checkpoint.Adopted {
		t.Fatalf("adopt over torn file: res=%v err=%v", res, err)
	}
}

// TestFileBaseSharedStem pins that checkpoint, lease, and abort artifacts
// can share one per-unit stem: Path is FileBase + ".ckpt".
func TestFileBaseSharedStem(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testMeta()
	if got, want := filepath.Base(st.Path(m)), m.FileBase()+".ckpt"; got != want {
		t.Fatalf("Path base %q, want %q", got, want)
	}
}
