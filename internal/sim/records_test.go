package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
)

// TestMissPathRecordsFitRegisters pins the records every L1 miss moves at
// the size Go's compiler keeps in SSA registers: a struct of at most four
// fields and at most 32 bytes. A larger one lives in memory, and each call
// that passes or returns it copies it through the stack.
func TestMissPathRecordsFitRegisters(t *testing.T) {
	for _, r := range []struct {
		name   string
		typ    reflect.Type
		nbytes uintptr
	}{
		{"cache.Victim", reflect.TypeOf(cache.Victim{}), unsafe.Sizeof(cache.Victim{})},
		{"core.Request", reflect.TypeOf(core.Request{}), unsafe.Sizeof(core.Request{})},
		{"core.Requests", reflect.TypeOf(core.Requests{}), unsafe.Sizeof(core.Requests{})},
		{"sim.mshrEntry", reflect.TypeOf(mshrEntry{}), unsafe.Sizeof(mshrEntry{})},
	} {
		if n := r.typ.NumField(); n > 4 || r.nbytes > 32 {
			t.Errorf("%s has %d fields and %d bytes: past Go's SSA limit of 4 fields and 32 bytes, so the miss path copies it through memory",
				r.name, n, r.nbytes)
		}
	}
}

// TestQuarterCycleClock replays accesses whose instruction counts are not
// multiples of IssueWidth, and one informing-load trap whose handler
// halves an odd latency, and checks the clock and the stall sum at every
// quarter-cycle fraction against values worked out by hand. The L2 hit
// latency is 21, so a fetch that misses every level costs 21 + 160 = 181
// cycles.
func TestQuarterCycleClock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Levels[0].HitLat = 21
	secret := mem.Region{Base: 0x8000, Size: mem.LineSize}
	th := New(cfg).NewThread(ThreadConfig{Mode: ModeInforming, SecretRegions: []mem.Region{secret}})
	x, y, z := mem.Addr(0x1000), mem.Addr(0x2000), mem.Addr(0x3000)
	for i, s := range []struct {
		a            mem.Access
		cycle, stall float64
	}{
		// 1 instruction: 0.25. The miss completes at 0.25 + 181.
		{mem.Access{Addr: x}, 0.25, 0},
		// 2 instructions: 0.75, then the dependence waits until 181.25.
		// y misses and completes at 362.25.
		{mem.Access{Addr: y, NonMem: 1, Dependent: true}, 181.25, 180.5},
		// 3 instructions: 182. The secret miss traps: 50 cycles, then the
		// handler reloads the one line at 181 / 2 = 90.5.
		{mem.Access{Addr: secret.Base, NonMem: 2, Secret: true}, 322.5, 180.5},
		// 5 instructions: 323.75. z misses and completes at 504.75.
		{mem.Access{Addr: z, NonMem: 4}, 323.75, 180.5},
		// 1 instruction: 324, then the dependence waits 180.75 for z.
		// y landed at 362.25, so the access hits.
		{mem.Access{Addr: y, Dependent: true}, 504.75, 361.25},
	} {
		th.Step(s.a)
		if r := th.Result(); th.Cycle() != s.cycle || r.Cycles != s.cycle || r.StallCycles != s.stall {
			t.Fatalf("access %d: Cycle %v, Result.Cycles %v, StallCycles %v; want %v, %v, %v",
				i, th.Cycle(), r.Cycles, r.StallCycles, s.cycle, s.cycle, s.stall)
		}
	}
	th.Drain()
	r := th.Result()
	if th.Cycle() != 504.75 || r.Cycles != 504.75 || r.StallCycles != 361.25 {
		t.Fatalf("drained: Cycle %v, Result.Cycles %v, StallCycles %v; want 504.75, 504.75, 361.25",
			th.Cycle(), r.Cycles, r.StallCycles)
	}
	if r.InformingTraps != 1 || r.Misses != 4 || r.Hits != 1 {
		t.Fatalf("traps %d, misses %d, hits %d; want 1, 4, 1", r.InformingTraps, r.Misses, r.Hits)
	}
}
