package fabric

import (
	"os"
	"path/filepath"
	"sort"
	"sync"

	"randfill/internal/checkpoint"
)

// AbortDir is where best-effort aborted-unit markers live, as a
// subdirectory of the checkpoint store so solo runs (-checkpoint-dir) and
// fabric runs (F/ckpt) share one location.
func AbortDir(storeDir string) string { return filepath.Join(storeDir, "aborted") }

// abortPath is the marker file for one unit.
func abortPath(storeDir string, m checkpoint.Meta) string {
	return filepath.Join(AbortDir(storeDir), m.FileBase()+".aborted")
}

// InFlight tracks the units a process is currently executing, so a
// hard-kill path (second signal) can leave best-effort aborted markers
// behind. Fabric workers take marked units first: they are the ones a dead
// process already sank time into.
type InFlight struct {
	mu    sync.Mutex
	owner string
	units map[checkpoint.Meta]struct{}
}

// NewInFlight returns a tracker stamping markers with owner's id.
func NewInFlight(owner string) *InFlight {
	return &InFlight{owner: owner, units: make(map[checkpoint.Meta]struct{})}
}

// Observe records a unit starting (done=false) or durably finishing
// (done=true). Its signature matches the experiment layer's Scale.Track
// hook, so the same tracker serves solo runs and fabric workers.
func (f *InFlight) Observe(m checkpoint.Meta, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if done {
		delete(f.units, m)
	} else {
		f.units[m] = struct{}{}
	}
}

// Snapshot returns the currently in-flight units in deterministic
// (FileBase) order.
func (f *InFlight) Snapshot() []checkpoint.Meta {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]checkpoint.Meta, 0, len(f.units))
	for m := range f.units {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FileBase() < out[j].FileBase() })
	return out
}

// WriteAborted leaves one marker per in-flight unit under the store
// directory. It is called from a hard-kill path, so it is strictly
// best-effort: every error is swallowed — a missing marker only costs
// scheduling priority, never correctness. A marker is an aborted unit's
// claim with no deadline.
func (f *InFlight) WriteAborted(storeDir string) {
	if storeDir == "" {
		return
	}
	// MkdirAll rather than assuming Prepare ran: solo runs create only the
	// checkpoint dir.
	if err := os.MkdirAll(AbortDir(storeDir), 0o755); err != nil {
		return
	}
	for _, m := range f.Snapshot() {
		// Best-effort marker on the hard-kill path; a lost marker only costs
		// scheduling priority.
		_ = writeClaim(abortPath(storeDir, m), Claim{Owner: f.owner, Unit: m}, false, nil)
	}
}

// ScanAborted lists the units with aborted markers under storeDir, in
// sorted file order. Torn or corrupt markers are skipped (they were
// best-effort to begin with).
func ScanAborted(storeDir string) []checkpoint.Meta {
	names, err := filepath.Glob(filepath.Join(AbortDir(storeDir), "*.aborted"))
	if err != nil {
		return nil
	}
	sort.Strings(names)
	var out []checkpoint.Meta
	for _, name := range names {
		c, ok, err := readClaim(name)
		if err != nil || !ok {
			continue
		}
		out = append(out, c.Unit)
	}
	return out
}

// ClearAborted removes the marker for a unit once it has a verified
// checkpoint. Best effort: a leftover marker only re-prioritizes a unit
// the workers' completion check already skips.
func ClearAborted(storeDir string, m checkpoint.Meta) {
	//lint:ignore errcheck-io best-effort cleanup; a stale marker is filtered by the completion scan
	os.Remove(abortPath(storeDir, m))
}
