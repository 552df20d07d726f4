package plant_test

import (
	"math/rand"
	"testing"

	"oic/internal/core"
	"oic/internal/plant"

	// Register the case studies.
	_ "oic/internal/acc"
	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

func TestRegistryHasAllPlants(t *testing.T) {
	names := plant.Names()
	want := []string{"acc", "orbit", "thermo"}
	if len(names) != len(want) {
		t.Fatalf("registered plants = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered plants = %v, want %v", names, want)
		}
	}
	if _, err := plant.Get("acc"); err != nil {
		t.Fatal(err)
	}
	if _, err := plant.Get("nope"); err == nil {
		t.Fatal("Get(nope) should fail")
	}
}

func TestFindScenario(t *testing.T) {
	p, err := plant.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	if sc, err := plant.FindScenario(p, "Ex.3"); err != nil || sc.ID != "Ex.3" {
		t.Fatalf("FindScenario(Ex.3) = %v, %v", sc, err)
	}
	if sc, err := plant.FindScenario(p, "Fig.4"); err != nil || sc.ID != "Fig.4" {
		t.Fatalf("FindScenario(Fig.4) = %v, %v", sc, err)
	}
	if _, err := plant.FindScenario(p, "Ex.99"); err == nil {
		t.Fatal("FindScenario(Ex.99) should fail")
	}
}

// TestEveryPlantContract drives the full Instance surface of every
// registered plant: instantiate the headline scenario, check the set
// nesting, run paired episodes with zero violations, and verify the
// disturbance traces respect the declared W set (out-of-model
// disturbances void every guarantee).
func TestEveryPlantContract(t *testing.T) {
	for _, name := range plant.Names() {
		t.Run(name, func(t *testing.T) {
			p, err := plant.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if p.CostLabel() == "" || p.Description() == "" {
				t.Error("empty cost label or description")
			}
			if len(p.Ladders()) == 0 {
				t.Error("plant has no scenario ladders")
			}
			if p.EpisodeSteps() <= 0 {
				t.Error("non-positive default episode length")
			}
			inst, err := p.Instantiate(p.Headline(), nil)
			if err != nil {
				t.Fatal(err)
			}
			sets := inst.Sets
			if ok, err := sets.XI.Covers(sets.XPrime, 1e-6); err != nil || !ok {
				t.Errorf("X' ⊄ XI (ok=%v err=%v)", ok, err)
			}
			if ok, err := sets.X.Covers(sets.XI, 1e-6); err != nil || !ok {
				t.Errorf("XI ⊄ X (ok=%v err=%v)", ok, err)
			}

			rng := rand.New(rand.NewSource(7))
			x0s, err := inst.SampleInitialStates(2, rng)
			if err != nil {
				t.Fatal(err)
			}
			steps := 30
			w := inst.Disturbances(rng, steps)
			if len(w) != steps {
				t.Fatalf("trace length %d, want %d", len(w), steps)
			}
			for ti, wt := range w {
				if !inst.Sys.W.Contains(wt, 1e-9) {
					t.Fatalf("disturbance %v at step %d outside W", wt, ti)
				}
			}
			for _, pol := range []core.SkipPolicy{core.AlwaysRun{}, core.BangBang{}} {
				ep, err := inst.RunEpisode(pol, x0s[0], w)
				if err != nil {
					t.Fatalf("%s: %v", pol.Name(), err)
				}
				if ep.Result.ViolationsX != 0 || ep.Result.ViolationsXI != 0 {
					t.Errorf("%s: violations X=%d XI=%d", pol.Name(), ep.Result.ViolationsX, ep.Result.ViolationsXI)
				}
				if ep.Cost < 0 {
					t.Errorf("%s: negative cost %v", pol.Name(), ep.Cost)
				}
			}
		})
	}
}

// TestGenericDRLTrainsSafely checks the plant-agnostic trainer end to end
// on the plants that derive their encoder from X and W (the ACC's
// declared encoder is covered by its TestTrainDRLSmoke): training must
// stay violation-free (the monitor guards exploration) and the trained
// policy must run.
func TestGenericDRLTrainsSafely(t *testing.T) {
	for _, name := range []string{"thermo", "orbit"} {
		t.Run(name, func(t *testing.T) {
			p, err := plant.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := p.Instantiate(p.Headline(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pol, st, err := plant.TrainDRL(inst, plant.TrainConfig{Episodes: 3, Steps: 25, Seed: 5}, p.EpisodeSteps())
			if err != nil {
				t.Fatal(err)
			}
			if st.TotalSteps != 75 {
				t.Errorf("trained %d steps, want 75", st.TotalSteps)
			}
			rng := rand.New(rand.NewSource(9))
			x0s, err := inst.SampleInitialStates(1, rng)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := inst.RunEpisode(pol, x0s[0], inst.Disturbances(rng, 30))
			if err != nil {
				t.Fatal(err)
			}
			if ep.Result.ViolationsX != 0 {
				t.Errorf("violations = %d", ep.Result.ViolationsX)
			}
		})
	}
}

func TestEncoderNormalizesRanges(t *testing.T) {
	p, err := plant.Get("acc")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := p.Instantiate(p.Headline(), nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := plant.NewEncoder(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.StateDim(1); got != 4 {
		t.Fatalf("StateDim(1) = %d, want 4 (2 state + 2 disturbance)", got)
	}
	rng := rand.New(rand.NewSource(3))
	x0s, err := inst.SampleInitialStates(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range x0s {
		s := enc.Encode(x, inst.Disturbances(rng, 1))
		for i, v := range s {
			if v < -1.5 || v > 1.5 {
				t.Errorf("feature %d = %v outside O(1) range for x=%v", i, v, x)
			}
		}
	}
}

// TestMemoryPolicyEvaluates is the r > 1 regression: a policy trained
// with a longer disturbance memory must evaluate without dimension
// mismatches because RunEpisode sizes the session window from the policy
// (PolicyMemory).
func TestMemoryPolicyEvaluates(t *testing.T) {
	for _, name := range []string{"acc", "thermo"} {
		t.Run(name, func(t *testing.T) {
			p, err := plant.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := p.Instantiate(p.Headline(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pol, _, err := plant.TrainDRL(inst, plant.TrainConfig{Episodes: 2, Steps: 20, Memory: 3}, p.EpisodeSteps())
			if err != nil {
				t.Fatal(err)
			}
			if got := plant.PolicyMemory(pol); got != 3 {
				t.Fatalf("PolicyMemory = %d, want 3", got)
			}
			rng := rand.New(rand.NewSource(13))
			x0s, err := inst.SampleInitialStates(1, rng)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := inst.RunEpisode(pol, x0s[0], inst.Disturbances(rng, 25))
			if err != nil {
				t.Fatal(err)
			}
			if ep.Result.ViolationsX != 0 {
				t.Errorf("violations = %d", ep.Result.ViolationsX)
			}
		})
	}
}
