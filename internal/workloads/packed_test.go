package workloads

import (
	"runtime"
	"testing"
	"unsafe"

	"randfill/internal/mem"
	"randfill/internal/trace"
)

// sameCompiled fails unless got and want hold the same packed words and,
// where a word is an escape, the same escape record.
func sameCompiled(t *testing.T, name string, got, want *trace.Compiled) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d words, want %d", name, got.Len(), want.Len())
	}
	gw, ww := got.Words(), want.Words()
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", name, i, gw[i], ww[i])
		}
		if trace.IsEscape(ww[i]) && got.At(i) != want.At(i) {
			t.Fatalf("%s: escape %d = %+v, want %+v", name, i, got.At(i), want.At(i))
		}
	}
}

// TestCompileMatchesGen requires every generator's packed trace to equal
// the compiled records Gen returns, word for word, at lengths where the
// last step ends exactly on n and lengths where it writes past n.
func TestCompileMatchesGen(t *testing.T) {
	for _, g := range All() {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 1000, 1001, 1002, 30_001} {
			for _, seed := range []uint64{1, 42} {
				sameCompiled(t, g.Name, g.Compile(n, seed), trace.Compile(g.Gen(n, seed)))
			}
		}
	}
}

// bytesPerCall returns the bytes f allocates, averaged over a few calls.
func bytesPerCall(f func()) uint64 {
	const calls = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// roundUp is the bytes the runtime allocates for an object of size bytes
// or more: large objects take whole 8 KiB pages.
func roundUp(size uintptr) uint64 { return uint64(size+8191) &^ 8191 }

// TestGenAllocatesOneBuffer pins Gen's sizing: each call allocates one
// record buffer of n plus the generator's overshoot (and its few small
// objects), never a regrowth when the last step writes past n. h264ref and
// hmmer used to copy their whole trace into a larger array on that step.
// The lengths run over every alignment of a step of up to four accesses.
func TestGenAllocatesOneBuffer(t *testing.T) {
	const slack = 8 << 10 // the rng source, the sink and the runtime's own
	for _, g := range All() {
		for _, n := range []int{30_000, 30_001, 30_002, 30_003, 30_005, 30_007, 150_000} {
			want := roundUp(uintptr(n+g.overshoot)*unsafe.Sizeof(mem.Access{})) + slack
			var tr mem.Trace
			got := bytesPerCall(func() { tr = g.Gen(n, 1) })
			if len(tr) != n {
				t.Fatalf("%s: Gen(%d) returned %d accesses", g.Name, n, len(tr))
			}
			if got > want {
				t.Errorf("%s: Gen(%d) allocated %d B, want at most %d (one buffer of n+%d records)",
					g.Name, n, got, want, g.overshoot)
			}
		}
	}
}

// TestCompileAllocation pins the packed build: a generator's Compile
// allocates at most about 1.1 words of 8 bytes per access, so building the
// records on the way (24 bytes per access) fails here.
func TestCompileAllocation(t *testing.T) {
	const n = 150_000
	for _, g := range All() {
		got := bytesPerCall(func() { g.Compile(n, 1) })
		t.Logf("%s: Compile(%d) allocates %d B (%.2f B per access)", g.Name, n, got, float64(got)/n)
		if got < 8*n {
			t.Errorf("%s: Compile(%d) allocated %d B, under its %d B of words: the measurement sees nothing", g.Name, n, got, 8*n)
		}
		if got > 8*n*11/10 {
			t.Errorf("%s: Compile(%d) allocated %d B, want at most 1.1 x 8 B per access", g.Name, n, got)
		}
	}
}
