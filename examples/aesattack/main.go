// The paper's case study, end to end: a final-round cache collision attack
// against table-based AES-128 (Bonneau & Mironov style). The attacker
// triggers block encryptions of random plaintexts from a clean L1, measures
// each encryption's latency on the timing simulator, aggregates by XORed
// ciphertext bytes, and reads last-round-key XOR relations off the minima
// of the timing characteristic chart (Figure 2).
//
// The same attack is then repeated against a random fill cache with a
// window covering the table: the timing signal vanishes.
package main

import (
	"fmt"

	"randfill/internal/attacks"
	"randfill/internal/rng"
	"randfill/internal/sim"
)

func main() {
	base := sim.AttackerConfig()

	fmt.Println("== phase 1: demand-fetch cache (conventional) ==")
	demand := attacks.NewCollision(attacks.CollisionConfig{Sim: base, Seed: 7})
	const budget = 220000
	demand.Collect(budget)
	report(demand)

	fmt.Println("\n== phase 2: random fill cache, window [-16,+15] ==")
	rf := attacks.NewCollision(attacks.CollisionConfig{
		Sim:    base,
		Victim: sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15}},
		Seed:   7,
	})
	rf.Collect(budget)
	report(rf)

	fmt.Println("\nWith the window covering the whole table, P1 - P2 = 0 for every")
	fmt.Println("lookup pair (Section V.A): the minimum of the timing chart no longer")
	fmt.Println("marks the key, no matter how many measurements the attacker takes.")
}

func report(a *attacks.Collision) {
	fmt.Printf("measurements: %d, sigma_T = %.1f cycles\n", a.Samples(), a.SigmaT())
	correct := a.CorrectPairs()
	fmt.Printf("recovered XOR relations: %d of %d\n", correct, a.Pairs())

	// A slice of the Figure 2 chart for the pair (c0, c1).
	chart := a.TimingChart(0)
	truth := a.TrueXor(0)
	rank := 0
	for _, v := range chart {
		if v < chart[truth] {
			rank++
		}
	}
	fmt.Printf("pair (0,1): true k10_0^k10_1 = %d, recovered = %d\n", truth, a.RecoveredXor(0))
	fmt.Printf("  mean-time deviation at the true value: %+.2f cycles (rank %d of 256)\n",
		chart[truth], rank)
	if correct == a.Pairs() {
		fmt.Println("  FULL LAST-ROUND KEY RECOVERED (up to one guessed byte)")
	}
}
