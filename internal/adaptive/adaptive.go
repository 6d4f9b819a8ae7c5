// Package adaptive implements the paper's stated future work: "Further
// performance improvements with the random fill cache may be possible by
// getting spatial locality profiles for different phases of the program,
// and setting the appropriate window size for each phase" (Section VII).
//
// The Controller tunes a thread's random fill window online: it
// periodically explores a candidate window set for one epoch each, measures
// end-to-end progress (cycles per instruction), locks in the best candidate
// for an exploitation period, and re-explores to track phase changes. The
// reconfiguration uses the same set_RR system interface a compiler or
// runtime would.
//
// Security composes cleanly: a thread handling secret data constrains the
// candidate set to windows no smaller than its secure minimum (the window
// covering its largest table), so adaptation only ever tunes performance
// above the security floor.
package adaptive

import (
	"fmt"

	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
)

// DefaultCandidates is a reasonable exploration set: demand fetch, a short
// and a long forward window, and a bidirectional window.
func DefaultCandidates() []rng.Window {
	return []rng.Window{
		{A: 0, B: 0},
		{A: 0, B: 3},
		{A: 0, B: 15},
		{A: 8, B: 7},
	}
}

// Config tunes the controller.
type Config struct {
	// Candidates are the windows explored (default DefaultCandidates).
	Candidates []rng.Window
	// Epoch is the number of accesses per measurement epoch (default
	// 20000).
	Epoch int
	// ExploitEpochs is how many epochs the winning window is kept before
	// re-exploring (default 8).
	ExploitEpochs int
	// MinSize, when positive, drops candidates whose window size is
	// below it — the security floor for secret-handling threads.
	MinSize int
}

func (c Config) withDefaults() Config {
	if len(c.Candidates) == 0 {
		c.Candidates = DefaultCandidates()
	}
	if c.Epoch == 0 {
		c.Epoch = 20000
	}
	if c.ExploitEpochs == 0 {
		c.ExploitEpochs = 8
	}
	if c.MinSize > 1 {
		kept := c.Candidates[:0:0]
		for _, w := range c.Candidates {
			if w.Size() >= c.MinSize {
				kept = append(kept, w)
			}
		}
		c.Candidates = kept
	}
	return c
}

// Controller drives one thread, adapting its window at epoch boundaries.
type Controller struct {
	cfg    Config
	thread *sim.Thread

	phase        int // exploration progress; -1 = exploiting
	rotation     int // exploration start offset, rotated per round
	warmed       bool
	current      int // candidate currently programmed
	best         int
	bestCPI      float64
	epochAccess  int
	exploitLeft  int
	lastSnapshot sim.Result

	winner int // last exploitation choice, -1 before the first round

	// Switches counts window reconfigurations (set_RR invocations).
	Switches int
}

// New attaches a controller to th. It panics if the candidate set is empty
// after applying the security floor (a configuration error).
func New(th *sim.Thread, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	if len(cfg.Candidates) == 0 {
		panic("adaptive: no candidate windows survive the security floor")
	}
	c := &Controller{cfg: cfg, thread: th, phase: 0, best: -1, winner: -1}
	c.program(c.exploreIdx(0))
	c.lastSnapshot = th.Result()
	return c
}

// Window returns the currently programmed window.
func (c *Controller) Window() rng.Window { return c.cfg.Candidates[c.current] }

// Exploring reports whether the controller is in an exploration phase.
func (c *Controller) Exploring() bool { return c.phase >= 0 }

// exploreIdx maps exploration progress to a candidate index. The start
// offset rotates every round so slow drifts in cache warm-up do not
// systematically favor the last-explored candidate.
func (c *Controller) exploreIdx(phase int) int {
	return (phase + c.rotation) % len(c.cfg.Candidates)
}

func (c *Controller) program(idx int) {
	w := c.cfg.Candidates[idx]
	c.thread.Engine().SetRR(w.A, w.B)
	c.current = idx
	c.Switches++
}

// epochCPI returns the cycles-per-instruction of the epoch that just ended
// and rolls the snapshot forward.
func (c *Controller) epochCPI() float64 {
	now := c.thread.Result()
	delta := now.Sub(c.lastSnapshot)
	c.lastSnapshot = now
	if delta.Instructions == 0 {
		return 0
	}
	return delta.Cycles / float64(delta.Instructions)
}

// Step processes one access through the thread and handles epoch
// boundaries.
func (c *Controller) Step(a mem.Access) {
	c.thread.Step(a)
	c.epochAccess++
	if c.epochAccess < c.cfg.Epoch {
		return
	}
	c.epochAccess = 0
	cpi := c.epochCPI()

	if !c.warmed {
		// The first epoch is cache warm-up: its CPI is dominated by
		// cold misses and would bias the first-explored candidate, so
		// it is discarded and exploration starts fresh.
		c.warmed = true
		return
	}

	if c.phase >= 0 {
		// Exploration: record this candidate's CPI, move on.
		if c.best < 0 || cpi < c.bestCPI {
			c.best = c.current
			c.bestCPI = cpi
		}
		c.phase++
		if c.phase < len(c.cfg.Candidates) {
			c.program(c.exploreIdx(c.phase))
			return
		}
		// Exploration over: exploit the winner.
		c.phase = -1
		c.winner = c.best
		c.exploitLeft = c.cfg.ExploitEpochs
		if c.current != c.best {
			c.program(c.best)
		}
		return
	}

	// Exploitation: count down, then re-explore (phase change tracking).
	c.exploitLeft--
	if c.exploitLeft <= 0 {
		c.phase = 0
		c.best = -1
		c.rotation++
		c.program(c.exploreIdx(0))
	}
}

// Run drives a whole trace through the thread with adaptation and returns
// the thread's result.
func (c *Controller) Run(trace mem.Trace) sim.Result {
	for i := range trace {
		c.Step(trace[i])
	}
	c.thread.Drain()
	return c.thread.Result()
}

func (c *Controller) String() string {
	state := "exploit"
	if c.Exploring() {
		state = fmt.Sprintf("explore %d/%d", c.phase+1, len(c.cfg.Candidates))
	}
	return fmt.Sprintf("adaptive(%v, %s, %d switches)", c.Window(), state, c.Switches)
}
