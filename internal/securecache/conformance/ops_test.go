package conformance

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"randfill/internal/atomicio"
	"randfill/internal/cache"
	"randfill/internal/rng"
	"randfill/internal/securecache"
)

var update = flag.Bool("update", false, "rewrite testdata/ops.golden from the current designs")

// opsDigest drives one instance of d under policy pol ("": the design's
// default) at SmallConfig through the conformance op script, flushes it,
// drives it through the script again, and returns the sha256 of everything
// observable along the way: every op's outcome, every eviction callback's
// Victim record in callback order, and the final Stats. The second pass
// pins what a Flush leaves behind (MIRAGE's free-list order, Newcache's and
// RPcache's torn-down index state).
func opsDigest(d securecache.Design, pol string) string {
	cfg := SmallConfig()
	cfg.Policy = pol
	c := d.New(cfg, rng.New(factorySeed))
	h := sha256.New()
	c.SetEvictionObserver(func(v cache.Victim) {
		fmt.Fprintf(h, "v %t %t %d %t %t %d\n", v.Valid(), v.Refused(), v.Line, v.Dirty(), v.Referenced(), v.Offset)
	})
	run := func() {
		trace, _ := drive(c, driveOps)
		for _, s := range trace {
			fmt.Fprintf(h, "%c %t %d\n", s.op, s.hit, s.occ)
		}
	}
	run()
	c.Flush()
	fmt.Fprintln(h, "flush")
	run()
	st := c.Stats()
	fmt.Fprintf(h, "stats %d %d %d %d %d %d %d\n",
		st.Hits, st.Misses, st.Fills, st.Evictions, st.Writebacks, st.Invalidates, st.FillRefused)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestOpsGolden pins every registry design under its default policy and
// under each named policy op by op: one digest per instance (opsDigest),
// compared against testdata/ops.golden. The rest of the suite compares two
// instances of the same build; this golden is what holds a design's
// per-op behaviour across a change to its implementation. Regenerate with
// `go test ./internal/securecache/conformance -run OpsGolden -update` only
// for a change meant to move a design's behaviour, and say why.
func TestOpsGolden(t *testing.T) {
	var b strings.Builder
	for _, d := range securecache.All() {
		for _, pol := range append([]string{""}, cache.PolicyNames()...) {
			name := pol
			if name == "" {
				name = "default"
			}
			fmt.Fprintf(&b, "%s/%s %s\n", d.Name, name, opsDigest(d, pol))
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "ops.golden")
	if *update {
		if err := atomicio.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("drifted from golden: got %q", gl[i])
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("golden has %d lines, got %d", len(wl), len(gl))
		}
	}
}
