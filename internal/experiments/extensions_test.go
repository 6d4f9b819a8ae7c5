package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestConstantTimeRanking(t *testing.T) {
	tb := mustTable(t, "ConstantTime", QuickScale())
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(name string) float64 {
		for _, row := range tb.Rows {
			if row[0] == name {
				return parsePct(t, row[1])
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	disable := get("disable cache")
	informing := get("informing loads")
	preload := get("PLcache+preload")
	rf := get("random fill [-16,+15]")
	// Paper's qualitative ranking under eviction pressure.
	if !(disable < informing) {
		t.Errorf("disable (%v) not below informing loads (%v)", disable, informing)
	}
	if !(informing < preload) {
		t.Errorf("informing loads (%v) not below PLcache+preload (%v)", informing, preload)
	}
	if rf < 0.85 {
		t.Errorf("random fill at %v, want near baseline", rf)
	}
	// Informing loads must actually have trapped many times.
	for _, row := range tb.Rows {
		if row[0] == "informing loads" {
			n, err := strconv.Atoi(row[2])
			if err != nil || n < 100 {
				t.Errorf("informing traps = %s, want many under an 8KB cache", row[2])
			}
		}
	}
}

func TestInformingDoSShape(t *testing.T) {
	tb := mustTable(t, "InformingDoS", QuickScale())
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// The informing-loads victim suffers more from the evicting
	// co-runner than the random fill victim, and its trap count
	// explodes while random fill has none.
	inf := parsePct(t, tb.Rows[0][3])
	rf := parsePct(t, tb.Rows[1][3])
	if inf >= rf {
		t.Errorf("informing-loads slowdown %v not worse than random fill %v", inf, rf)
	}
	infTraps, _ := strconv.Atoi(tb.Rows[0][4])
	rfTraps, _ := strconv.Atoi(tb.Rows[1][4])
	if infTraps < 100 {
		t.Errorf("informing traps under DoS = %d, want amplification", infTraps)
	}
	if rfTraps != 0 {
		t.Errorf("random fill victim trapped %d times", rfTraps)
	}
}

func TestAblationWindowShape(t *testing.T) {
	tb := mustTable(t, "AblationWindowShape", QuickScale())
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// All window shapes keep the security signal small at size 16.
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v > 0.08 {
			t.Errorf("%s: P1-P2 = %v, want small", row[0], v)
		}
	}
	// Only the forward window delivers the streaming speedup.
	fwd := parsePct(t, tb.Rows[0][2])
	back := parsePct(t, tb.Rows[1][2])
	if fwd < 1.1 {
		t.Errorf("forward window IPC %v, want clear speedup", fwd)
	}
	if back > fwd {
		t.Errorf("backward window (%v) beats forward (%v)", back, fwd)
	}
}

func TestAblationMissQueueMonotone(t *testing.T) {
	tb := mustTable(t, "AblationMissQueue", QuickScale())
	prev := 0.0
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v+0.01 < prev {
			t.Errorf("IPC fell from %v to %v with more miss-queue entries", prev, v)
		}
		prev = v
	}
}

func TestAblationDropOnHitSavesBandwidth(t *testing.T) {
	tb := mustTable(t, "AblationDropOnHit", QuickScale())
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	withDrop := parsePct(t, tb.Rows[0][2])
	without := parsePct(t, tb.Rows[1][2])
	if without <= withDrop {
		t.Errorf("ablating the drop check did not raise L2 traffic: %v vs %v", without, withDrop)
	}
}

func TestAblationL2RandomFillNegligible(t *testing.T) {
	tb := mustTable(t, "AblationL2RandomFill", QuickScale())
	l1 := parsePct(t, tb.Rows[0][1])
	both := parsePct(t, tb.Rows[1][1])
	// Paper: negligible difference between L1-only and L1+L2.
	if diff := l1 - both; diff > 0.06 || diff < -0.06 {
		t.Errorf("L1-only %v vs L1+L2 %v: difference not negligible", l1, both)
	}
}

func TestAblationFillQueueRuns(t *testing.T) {
	tb := mustTable(t, "AblationFillQueue", QuickScale())
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if n, err := strconv.Atoi(row[1]); err != nil || n == 0 {
			t.Errorf("depth %s: no fills landed", row[0])
		}
	}
}

func TestAdaptiveWindowShapeExperiment(t *testing.T) {
	tb := mustTable(t, "AdaptiveWindow", QuickScale())
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	statics := make([]float64, 3)
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseFloat(tb.Rows[i][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		statics[i] = v
	}
	adaptiveIPC, err := strconv.ParseFloat(tb.Rows[3][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	best, worst := statics[0], statics[0]
	for _, v := range statics[1:] {
		if v > best {
			best = v
		}
		if v < worst {
			worst = v
		}
	}
	// The controller must avoid the worst static choice and track the
	// oracle static within its exploration overhead.
	if adaptiveIPC <= worst {
		t.Errorf("adaptive IPC %v not above the worst static %v", adaptiveIPC, worst)
	}
	if adaptiveIPC < 0.88*best {
		t.Errorf("adaptive IPC %v more than 12%% below the oracle static %v", adaptiveIPC, best)
	}
}

func TestEquation4Experiment(t *testing.T) {
	tb := mustTable(t, "Equation4", QuickScale())
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		pred, err1 := strconv.ParseFloat(row[3], 64)
		meas, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatal("bad cells")
		}
		if diff := pred - meas; diff > 3 || diff < -3 {
			t.Errorf("window %s: predicted %v vs measured %v", row[0], pred, meas)
		}
	}
	// Demand fetch carries the full ~19-cycle signal; window 32 none.
	first, _ := strconv.ParseFloat(tb.Rows[0][4], 64)
	last, _ := strconv.ParseFloat(tb.Rows[5][4], 64)
	if first < 15 {
		t.Errorf("demand-fetch signal %v, want ≈ 19", first)
	}
	if last > 1.5 || last < -1.5 {
		t.Errorf("covering-window signal %v, want ≈ 0", last)
	}
}

func TestMissQueueSecurityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("attack sweep is slow")
	}
	sc := QuickScale()
	// 2^17 samples separates the three queue sizes decisively; at smaller
	// budgets the pairs-recovered ordering is sampling luck.
	sc.AttackMaxSamples = 1 << 17
	sc.AttackBatch = 1 << 15
	tb := mustTable(t, "MissQueueSecurity", sc)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	pairs := make([]int, 3)
	sigmas := make([]float64, 3)
	for i, row := range tb.Rows {
		n, err := strconv.Atoi(strings.TrimSuffix(row[2], "/15"))
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = n
		s, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		sigmas[i] = s
	}
	// More miss-queue entries blur the signal: progress and timing
	// variance fall with queue size.
	if !(pairs[0] >= pairs[1] && pairs[1] >= pairs[2]) {
		t.Errorf("pairs not monotone in queue size: %v", pairs)
	}
	if !(sigmas[0] >= sigmas[1] && sigmas[1] >= sigmas[2]) {
		t.Errorf("sigma not monotone in queue size: %v", sigmas)
	}
}
