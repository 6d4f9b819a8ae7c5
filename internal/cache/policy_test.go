package cache

import (
	"strings"
	"testing"

	"randfill/internal/rng"
)

// namedPolicy pairs a policy instance with its configuration name.
type namedPolicy struct {
	name string
	p    Policy
}

// policiesUnderTest builds each shipped policy with its own RNG stream, in
// PolicyNames order, for property tests that only need a valid instance.
func policiesUnderTest(seed uint64) []namedPolicy {
	var out []namedPolicy
	for _, name := range PolicyNames() {
		var src *rng.Source
		if PolicyNeedsRNG(name) {
			src = rng.New(seed)
		}
		p, err := PolicyByName(name, src)
		if err != nil {
			panic(err)
		}
		out = append(out, namedPolicy{name, p})
	}
	return out
}

// TestPolicyVictimAlwaysValid drives every policy through random event
// sequences at several associativities (ragged PLRU trees included) and
// checks the one law every policy must obey: Victim returns a way index in
// range, whatever state the events left behind.
func TestPolicyVictimAlwaysValid(t *testing.T) {
	for _, np := range policiesUnderTest(11) {
		p := np.p
		t.Run(np.name, func(t *testing.T) {
			for _, ways := range []int{1, 2, 3, 4, 5, 8, 13, 16, 64} {
				stamps := make([]uint64, ways)
				src := rng.New(uint64(ways) + 5)
				for i := 0; i < 500; i++ {
					switch src.Intn(3) {
					case 0:
						p.OnHit(stamps, src.Intn(ways), uint64(i))
					case 1:
						p.OnFill(stamps, src.Intn(ways), uint64(i))
					default:
						if w := p.Victim(stamps); w < 0 || w >= ways {
							t.Fatalf("ways=%d step %d: Victim returned %d", ways, i, w)
						}
					}
				}
			}
		})
	}
}

// TestPolicyVictimMaskedRespectsMask: for every policy and random mask,
// VictimMasked returns -1 exactly when the mask allows no way, and an
// allowed way otherwise. At every step it also checks the law SetAssoc's
// victim choice rests on: over a mask of every way, VictimMasked is Victim.
func TestPolicyVictimMaskedRespectsMask(t *testing.T) {
	for _, np := range policiesUnderTest(13) {
		p := np.p
		t.Run(np.name, func(t *testing.T) {
			for _, ways := range []int{1, 3, 4, 8, 16, 64} {
				stamps := make([]uint64, ways)
				src := rng.New(uint64(ways))
				for i := 0; i < 300; i++ {
					if src.Bool(0.5) {
						p.OnFill(stamps, src.Intn(ways), uint64(i))
					}
					checkFullMaskIsVictim(t, np.name, stamps, src.Uint64())
					mask := src.Uint64()
					if src.Bool(0.1) {
						mask = 0
					}
					w := p.VictimMasked(stamps, mask)
					allowed := mask
					if ways < 64 {
						allowed &= 1<<uint(ways) - 1
					}
					if allowed == 0 {
						if w != -1 {
							t.Fatalf("ways=%d: empty mask returned way %d, want -1", ways, w)
						}
						continue
					}
					if w < 0 || w >= ways || allowed&(1<<uint(w)) == 0 {
						t.Fatalf("ways=%d mask %#x: VictimMasked returned %d", ways, mask, w)
					}
				}
			}
		})
	}
}

// checkFullMaskIsVictim builds two instances of the named policy on
// equal-seeded sources and hands each its own copy of stamps: Victim on one,
// VictimMasked with every way allowed on the other. They must pick the same
// way, leave identical stamps (the RRIP policies age the set) and leave both
// sources at the same next draw (Random's Intn(popcount) is Intn(ways)).
func checkFullMaskIsVictim(t *testing.T, name string, stamps []uint64, seed uint64) {
	t.Helper()
	ways := len(stamps)
	plain, masked := append([]uint64(nil), stamps...), append([]uint64(nil), stamps...)
	plainSrc, maskedSrc := rng.New(seed), rng.New(seed)
	plainPol, err := PolicyByName(name, plainSrc)
	if err != nil {
		t.Fatal(err)
	}
	maskedPol, err := PolicyByName(name, maskedSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := plainPol.Victim(plain)
	if got := maskedPol.VictimMasked(masked, ^uint64(0)>>uint(64-ways)); got != want {
		t.Fatalf("ways=%d stamps %v: VictimMasked over every way = %d, Victim = %d", ways, stamps, got, want)
	}
	for w := range plain {
		if plain[w] != masked[w] {
			t.Fatalf("ways=%d: stamps after Victim %v, after VictimMasked %v", ways, plain, masked)
		}
	}
	if a, b := plainSrc.Uint64(), maskedSrc.Uint64(); a != b {
		t.Fatalf("ways=%d: next draw after Victim %#x, after VictimMasked %#x", ways, a, b)
	}
}

// TestLRUOrderingLaw pins LRU to a reference model: after any sequence of
// hits and fills, the victim is the way whose most recent touch is oldest
// (first such way on ties).
func TestLRUOrderingLaw(t *testing.T) {
	const ways = 8
	p := LRU{}
	stamps := make([]uint64, ways)
	last := make([]uint64, ways)
	src := rng.New(21)
	for i := 1; i <= 2000; i++ {
		w, tick := src.Intn(ways), uint64(i)
		if src.Bool(0.5) {
			p.OnHit(stamps, w, tick)
		} else {
			p.OnFill(stamps, w, tick)
		}
		last[w] = tick
		want := 0
		for v := 1; v < ways; v++ {
			if last[v] < last[want] {
				want = v
			}
		}
		if got := p.Victim(stamps); got != want {
			t.Fatalf("step %d: victim %d, want %d (last=%v)", i, got, want, last)
		}
	}
}

// TestFIFOOrderingLaw pins FIFO to its model: the victim is the way with the
// oldest fill, and hits never move a way back in the queue.
func TestFIFOOrderingLaw(t *testing.T) {
	const ways = 8
	p := FIFO{}
	stamps := make([]uint64, ways)
	filled := make([]uint64, ways)
	src := rng.New(22)
	for i := 1; i <= 2000; i++ {
		w, tick := src.Intn(ways), uint64(i)
		if src.Bool(0.4) {
			p.OnFill(stamps, w, tick)
			filled[w] = tick
		} else {
			p.OnHit(stamps, w, tick) // must not affect the queue
		}
		want := 0
		for v := 1; v < ways; v++ {
			if filled[v] < filled[want] {
				want = v
			}
		}
		if got := p.Victim(stamps); got != want {
			t.Fatalf("step %d: victim %d, want %d (filled=%v)", i, got, want, filled)
		}
	}
}

// TestSRRIPAgingTerminates: from any reachable RRPV state — including the
// all-zero state a burst of hits leaves — Victim terminates with a way whose
// RRPV reached the distant value, and never ages a way past it by more than
// the scan requires.
func TestSRRIPAgingTerminates(t *testing.T) {
	p := SRRIP{}
	for _, ways := range []int{1, 2, 4, 16} {
		stamps := make([]uint64, ways) // all near-immediate: worst case for aging
		w := p.Victim(stamps)
		if w < 0 || w >= ways {
			t.Fatalf("ways=%d: victim %d", ways, w)
		}
		if stamps[w] < rripMax {
			t.Fatalf("ways=%d: victim RRPV %d, want >= %d after aging", ways, stamps[w], rripMax)
		}
		for v := range stamps {
			if stamps[v] > rripMax {
				t.Fatalf("ways=%d: way %d aged past the distant value to %d", ways, v, stamps[v])
			}
		}
	}
	// Mixed state: hits and fills interleaved, then victim, repeatedly.
	src := rng.New(31)
	stamps := make([]uint64, 4)
	for i := 0; i < 1000; i++ {
		switch src.Intn(3) {
		case 0:
			p.OnHit(stamps, src.Intn(4), 0)
		case 1:
			p.OnFill(stamps, src.Intn(4), 0)
		default:
			if w := p.Victim(stamps); stamps[w] < rripMax {
				t.Fatalf("step %d: victim %d at RRPV %d", i, w, stamps[w])
			}
		}
	}
}

// TestBRRIPDrawCount pins BRRIP's RNG contract: every OnFill consumes
// exactly one Intn(brripEpsilon) draw — no more, no fewer, hit or age
// events none — so a BRRIP cache's draw sequence is a pure function of its
// fill count.
func TestBRRIPDrawCount(t *testing.T) {
	b := BRRIP{Src: rng.New(7)}
	ref := rng.New(7)
	stamps := make([]uint64, 4)
	for i := 0; i < 100; i++ {
		b.OnHit(stamps, i%4, 0)  // draw-free
		b.Victim(stamps)         // draw-free (aging only)
		b.OnFill(stamps, i%4, 0) // exactly one draw
		ref.Intn(brripEpsilon)
	}
	if got, want := b.Src.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("BRRIP stream diverged after 100 fills: next draw %d, want %d", got, want)
	}
}

// TestBRRIPInsertionSplit: the bimodal insertion inserts at the distant RRPV
// except for ~1/brripEpsilon of fills at the long one, and both values
// actually occur over a long fill sequence.
func TestBRRIPInsertionSplit(t *testing.T) {
	b := BRRIP{Src: rng.New(9)}
	stamps := make([]uint64, 1)
	long, distant := 0, 0
	const n = 32 * 200
	for i := 0; i < n; i++ {
		b.OnFill(stamps, 0, 0)
		switch stamps[0] {
		case rripMax - 1:
			long++
		case rripMax:
			distant++
		default:
			t.Fatalf("fill %d inserted at RRPV %d", i, stamps[0])
		}
	}
	if long == 0 || distant == 0 {
		t.Fatalf("insertion split long=%d distant=%d, want both present", long, distant)
	}
	if long > n/8 {
		t.Fatalf("long insertions %d of %d, want about 1/%d", long, n, brripEpsilon)
	}
}

// TestPLRUNeverEvictsMostRecent is tree-PLRU's defining guarantee: the way
// just touched is never the next victim (ways > 1), at every associativity
// including ragged trees.
func TestPLRUNeverEvictsMostRecent(t *testing.T) {
	p := PLRU{}
	for _, ways := range []int{2, 3, 4, 5, 6, 7, 8, 16, 64} {
		stamps := make([]uint64, ways)
		src := rng.New(uint64(ways) * 3)
		for i := 0; i < 500; i++ {
			w := src.Intn(ways)
			if src.Bool(0.5) {
				p.OnHit(stamps, w, 0)
			} else {
				p.OnFill(stamps, w, 0)
			}
			v := p.Victim(stamps)
			if v < 0 || v >= ways {
				t.Fatalf("ways=%d: victim %d", ways, v)
			}
			if v == w {
				t.Fatalf("ways=%d step %d: victim is the just-touched way %d", ways, i, w)
			}
		}
	}
}

// TestPLRURoundRobinCoverage: touching the victim repeatedly must cycle
// through every way (tree-PLRU's fairness property) — no way is starved.
func TestPLRUVictimCoverage(t *testing.T) {
	p := PLRU{}
	for _, ways := range []int{2, 4, 8, 16} {
		stamps := make([]uint64, ways)
		seen := map[int]bool{}
		for i := 0; i < 4*ways; i++ {
			v := p.Victim(stamps)
			seen[v] = true
			p.OnFill(stamps, v, 0)
		}
		if len(seen) != ways {
			t.Fatalf("ways=%d: fill-the-victim cycle visited %d ways, want all %d", ways, len(seen), ways)
		}
	}
}

// TestPLRUMaskedDetour pins the masked walk's detour rule on a concrete
// 4-way tree: when the preferred subtree holds no allowed way, the walk
// crosses to the other subtree instead of returning a disallowed way.
func TestPLRUMaskedDetour(t *testing.T) {
	p := PLRU{}
	stamps := make([]uint64, 4)
	// Touch ways 2 then 3: the tree now prefers the left half {0,1}.
	p.OnFill(stamps, 2, 0)
	p.OnFill(stamps, 3, 0)
	if v := p.Victim(stamps); v != 0 && v != 1 {
		t.Fatalf("unmasked victim %d, want the untouched left half", v)
	}
	// Mask out the whole left half: the walk must detour right.
	if v := p.VictimMasked(stamps, 0b1100); v != 2 && v != 3 {
		t.Fatalf("masked victim %d, want a right-half way", v)
	}
	// A single-way mask always returns that way.
	for w := 0; w < 4; w++ {
		if v := p.VictimMasked(stamps, 1<<uint(w)); v != w {
			t.Fatalf("singleton mask way %d returned %d", w, v)
		}
	}
	if v := p.VictimMasked(stamps, 0); v != -1 {
		t.Fatalf("empty mask returned %d, want -1", v)
	}
}

// TestPolicyByNameContract covers the constructor-facing surface: the happy
// names (case-insensitively), the empty-name default, the RNG requirement,
// and the error text listing every valid name.
func TestPolicyByNameContract(t *testing.T) {
	for _, name := range PolicyNames() {
		var src *rng.Source
		if PolicyNeedsRNG(name) {
			src = rng.New(1)
		}
		for _, variant := range []string{name, strings.ToUpper(name)} {
			p, err := PolicyByName(variant, src)
			if err != nil || p == nil {
				t.Errorf("PolicyByName(%q): %v", variant, err)
			}
		}
		if !KnownPolicy(name) || !KnownPolicy(strings.ToUpper(name)) {
			t.Errorf("KnownPolicy(%q) = false", name)
		}
	}
	if p, err := PolicyByName("", nil); err != nil || p.String() != "LRU" {
		t.Errorf(`PolicyByName("") = %v, %v; want the LRU default`, p, err)
	}
	if !KnownPolicy("") {
		t.Error(`KnownPolicy("") = false, want true (empty selects the default)`)
	}

	_, err := PolicyByName("clock", nil)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid policy %q", err, name)
		}
	}
	if KnownPolicy("clock") {
		t.Error(`KnownPolicy("clock") = true`)
	}

	for _, name := range []string{"random", "brrip"} {
		if _, err := PolicyByName(name, nil); err == nil {
			t.Errorf("PolicyByName(%q, nil) accepted a nil source", name)
		}
	}
}

// TestPolicyValidRejectsNilSources: PolicyValid is the constructor-time
// guard — nil-source RNG policies fail, everything else passes.
func TestPolicyValidRejectsNilSources(t *testing.T) {
	for _, p := range []Policy{Random{}, BRRIP{}} {
		if PolicyValid(p) == nil {
			t.Errorf("PolicyValid(%s with nil Src) = nil, want error", p)
		}
	}
	src := rng.New(1)
	for _, p := range []Policy{LRU{}, FIFO{}, PLRU{}, SRRIP{}, Random{Src: src}, BRRIP{Src: src}} {
		if err := PolicyValid(p); err != nil {
			t.Errorf("PolicyValid(%s) = %v", p, err)
		}
	}
}

// TestNewSetAssocRejectsInvalidPolicy: the constructor refuses a policy
// PolicyValid rejects, so a misconfigured cache fails at build time.
func TestNewSetAssocRejectsInvalidPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSetAssoc accepted Random with a nil source")
		}
	}()
	NewSetAssoc(Geometry{SizeBytes: 1024, Ways: 2}, Random{})
}
