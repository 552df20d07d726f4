// The paper's headline experiment end to end: adaptive cruise control with
// a robust MPC as the safe controller and a double-DQN skipping policy.
//
// It builds the ACC model (Section IV), trains the DRL agent on the Eq. 8
// sinusoidal front vehicle, and evaluates fuel consumption against the
// RMPC-only and bang-bang baselines on paired random episodes.
//
//	go run ./examples/acc-drl [-cases 25] [-train 120]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"oic/internal/acc"
	"oic/internal/core"
	"oic/internal/plant"
)

func main() {
	cases := flag.Int("cases", 25, "evaluation episodes")
	train := flag.Int("train", 120, "DRL training episodes")
	flag.Parse()

	fmt.Println("building ACC case study (RMPC, XI = feasible set, X')...")
	sc := acc.Fig4Scenario()
	inst, err := acc.Plant{}.Instantiate(sc.Generic(), nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("training double DQN on %s for %d episodes...\n", sc.Profile.Name(), *train)
	t0 := time.Now()
	drl, stats, err := plant.TrainDRL(inst, plant.TrainConfig{Episodes: *train, Seed: 1}, acc.EpisodeSteps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained in %v (mean episode reward %.4f, final TD-loss EMA %.5f)\n\n",
		time.Since(t0).Round(time.Millisecond), stats.MeanReward, stats.FinalLossEMA)

	rng := rand.New(rand.NewSource(7))
	x0s, err := inst.SampleInitialStates(*cases, rng)
	if err != nil {
		log.Fatal(err)
	}

	var fuelRM, fuelBB, fuelDRL float64
	var skips, violations int
	for _, x0 := range x0s {
		w := inst.Disturbances(rng, acc.EpisodeSteps)
		epRM, err := inst.RunEpisode(core.AlwaysRun{}, x0, w)
		if err != nil {
			log.Fatal(err)
		}
		epBB, err := inst.RunEpisode(core.BangBang{}, x0, w)
		if err != nil {
			log.Fatal(err)
		}
		epDR, err := inst.RunEpisode(drl, x0, w)
		if err != nil {
			log.Fatal(err)
		}
		fuelRM += epRM.Cost
		fuelBB += epBB.Cost
		fuelDRL += epDR.Cost
		skips += epDR.Result.Skips
		violations += epRM.Result.ViolationsX + epBB.Result.ViolationsX + epDR.Result.ViolationsX
	}
	n := float64(*cases)
	fmt.Printf("mean fuel over %d paired episodes (100 steps each):\n", *cases)
	fmt.Printf("  RMPC-only:              %6.2f mL\n", fuelRM/n)
	fmt.Printf("  bang-bang (Eq. 7):      %6.2f mL  (%.1f%% saving)\n",
		fuelBB/n, 100*(fuelRM-fuelBB)/fuelRM)
	fmt.Printf("  opportunistic DRL:      %6.2f mL  (%.1f%% saving)\n",
		fuelDRL/n, 100*(fuelRM-fuelDRL)/fuelRM)
	fmt.Printf("DRL skipped %.1f/100 steps on average; safety violations: %d\n",
		float64(skips)/n, violations)
}
