// Skip budgets and weakly-hard guarantees: generalizing the strengthened
// safe set X′ to a chain S₁ ⊇ S₂ ⊇ … where x ∈ S_k certifies that k
// consecutive control skips are safe without any monitoring in between —
// the bridge between the paper's framework and (m, K) weakly-hard
// scheduling of control tasks.
//
// The example prints the budget chain for the ACC case study, runs the
// budget-aware policy against bang-bang, and reports the weakly-hard
// profile of the executed skip patterns.
//
//	go run ./examples/skipbudget
package main

import (
	"fmt"
	"log"
	"math/rand"

	"oic/internal/acc"
	"oic/internal/core"
	"oic/internal/reach"
)

func main() {
	m, err := acc.NewModel(acc.Config{})
	if err != nil {
		log.Fatal(err)
	}

	const maxBudget = 8
	chain, err := reach.ConsecutiveSkipSets(m.Sets.XI, m.Sys, maxBudget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skip-budget chain for the ACC case study (X' = S1):\n")
	for k, s := range chain {
		area, err := s.Volume2D()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  S%-2d %2d halfspaces, area %7.1f  — %d consecutive skips certified\n",
			k+1, s.NumRows(), area, k+1)
	}

	// Compare bang-bang with the budget policy that keeps a 2-step margin.
	sc := acc.Fig4Scenario()
	rng := rand.New(rand.NewSource(3))
	x0s, err := m.SampleInitialStates(10, rng)
	if err != nil {
		log.Fatal(err)
	}
	budget := &core.BudgetPolicy{SkipSets: chain, MinBudget: 2}

	type agg struct {
		fuel, energy float64
		misses3      int // worst misses in any 3-step window
		forced       int
	}
	run := func(p core.SkipPolicy) agg {
		var a agg
		rr := rand.New(rand.NewSource(17))
		for _, x0 := range x0s {
			vf := sc.Profile.Generate(rr, acc.EpisodeSteps)
			ep, err := m.RunEpisode(p, x0, vf, nil)
			if err != nil {
				log.Fatal(err)
			}
			if ep.Result.ViolationsX != 0 {
				log.Fatalf("%s violated X", p.Name())
			}
			a.fuel += ep.Fuel
			a.energy += ep.Energy
			a.forced += ep.Result.Forced
			if mw := core.WindowMisses(ep.Trace.Steps, 3); mw > a.misses3 {
				a.misses3 = mw
			}
		}
		return a
	}

	always := run(core.AlwaysRun{})
	bang := run(core.BangBang{})
	bud := run(budget)

	fmt.Printf("\n%-16s %10s %10s %18s %8s\n", "policy", "fuel", "energy", "max misses (K=3)", "forced")
	fmt.Printf("%-16s %10.2f %10.1f %18d %8d\n", "always-run", always.fuel/10, always.energy/10, always.misses3, always.forced)
	fmt.Printf("%-16s %10.2f %10.1f %18d %8d\n", "bang-bang", bang.fuel/10, bang.energy/10, bang.misses3, bang.forced)
	fmt.Printf("%-16s %10.2f %10.1f %18d %8d\n", budget.Name(), bud.fuel/10, bud.energy/10, bud.misses3, bud.forced)
	fmt.Printf("\nthe budget policy trades a few skips for fewer monitor-forced slams,\n")
	fmt.Printf("and every pattern above satisfies the (m,K) profile its S_k membership certifies.\n")
}
