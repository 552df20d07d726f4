// Framework generality beyond driving: a room thermostat that skips heater
// control computations when the room is provably going to stay within the
// comfort band.
//
// The plant itself now lives in internal/thermo as a first-class case
// study of the scenario engine (run `go run ./cmd/oic -plant thermo all`
// for the full evaluation); this example drives one cold-snap afternoon
// directly to show the plant API.
//
//	go run ./examples/thermostat
package main

import (
	"fmt"
	"log"
	"math/rand"

	"oic/internal/core"
	"oic/internal/plant"
	"oic/internal/thermo"
)

func main() {
	var p thermo.Plant
	inst, err := p.Instantiate(p.Headline(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// One 4-hour afternoon under the cold-snap weather scenario, replayed
	// against both policies for a paired comparison.
	const steps = 480
	rng := rand.New(rand.NewSource(11))
	x0s, err := inst.SampleInitialStates(1, rng)
	if err != nil {
		log.Fatal(err)
	}
	if len(x0s) == 0 {
		log.Fatal("sampling X' returned no states")
	}
	w := inst.Disturbances(rng, steps)

	run := func(pol core.SkipPolicy) *plant.Episode {
		ep, err := inst.RunEpisode(pol, x0s[0], w)
		if err != nil {
			log.Fatal(err)
		}
		return ep
	}

	always := run(core.AlwaysRun{})
	bang := run(core.BangBang{})

	fmt.Println("thermostat with guaranteed comfort band (±1.5°C):")
	fmt.Printf("  always-run: %.3f kWh, controller calls %d\n",
		always.Cost, always.Result.ControllerCalls)
	fmt.Printf("  bang-bang:  %.3f kWh, controller calls %d, skips %d/%d, violations %d\n",
		bang.Cost, bang.Result.ControllerCalls, bang.Result.Skips, steps, bang.Result.ViolationsX)
	if always.Cost > 0 && always.Result.ControllerCalls > 0 {
		fmt.Printf("  savings: %.1f%% energy, %.1f%% controller invocations\n",
			100*(always.Cost-bang.Cost)/always.Cost,
			100*float64(always.Result.ControllerCalls-bang.Result.ControllerCalls)/float64(always.Result.ControllerCalls))
	}
}
