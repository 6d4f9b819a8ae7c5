package experiments

import (
	"runtime"
	"testing"

	"randfill/internal/trace"
)

// TestTraceBuildAllocation pins what building each experiment trace
// allocates, at QuickScale's CBCBytes and SpecAccesses: the packed words
// of 8 bytes per access and at most about a tenth more. A build that makes
// the 24-byte records on the way, or copies the trace while growing it,
// fails here.
func TestTraceBuildAllocation(t *testing.T) {
	sc := QuickScale()
	aesEncDecTrace(sc) // the first decryption builds the inverse key schedule
	for _, c := range []struct {
		name  string
		build func() *trace.Compiled
	}{
		{"Figure 8 crypto (AES-CBC enc+dec)", func() *trace.Compiled { return aesEncDecTrace(sc) }},
		{"AES-CBC victim", func() *trace.Compiled { return aesCBCTrace(sc) }},
		{"InformingDoS attacker", func() *trace.Compiled { return streamingEvictTrace(sc) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ct := c.build()
		runtime.ReadMemStats(&after)
		got, words := after.TotalAlloc-before.TotalAlloc, uint64(8*ct.Len())
		t.Logf("%s: %d accesses, %d B allocated (%.2f B per access)", c.name, ct.Len(), got, float64(got)/float64(ct.Len()))
		if got < words {
			t.Errorf("%s: allocated %d B, under its %d B of words: the measurement sees nothing", c.name, got, words)
		}
		if float64(got) > 1.1*float64(words) {
			t.Errorf("%s: allocated %d B for %d accesses, want at most 1.1 x 8 B per access", c.name, got, ct.Len())
		}
	}
}
