package acc

import (
	"fmt"
	"math/rand"

	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/traffic"
)

// Plant adapts the ACC case study to the plant-agnostic harness. It is
// registered under the name "acc"; importing this package is enough to
// make it available to internal/exp and cmd/oic.
type Plant struct{}

func init() { plant.Register(Plant{}) }

// Name implements plant.Plant.
func (Plant) Name() string { return "acc" }

// Description implements plant.Plant.
func (Plant) Description() string {
	return "adaptive cruise control, the paper's Section IV case study (RMPC, fuel cost)"
}

// CostLabel implements plant.Plant.
func (Plant) CostLabel() string { return "fuel" }

// EpisodeSteps implements plant.Plant.
func (Plant) EpisodeSteps() int { return EpisodeSteps }

// Generic converts an ACC scenario to the plant-agnostic form.
func (sc Scenario) Generic() plant.Scenario {
	return plant.Scenario{
		ID:          sc.ID,
		Description: sc.Description,
		Detail:      fmt.Sprintf("v_f ∈ [%g, %g]", sc.VfMin, sc.VfMax),
	}
}

func toGeneric(scs []Scenario) []plant.Scenario {
	out := make([]plant.Scenario, len(scs))
	for i, sc := range scs {
		out[i] = sc.Generic()
	}
	return out
}

// Headline implements plant.Plant: the Fig. 4 sinusoid scenario.
func (Plant) Headline() plant.Scenario { return Fig4Scenario().Generic() }

// Ladders implements plant.Plant: the Table I range ladder (Fig. 5) and
// the regularity ladder (Fig. 6).
func (Plant) Ladders() []plant.Ladder {
	return []plant.Ladder{
		{
			Name:      "range",
			Title:     "DRL fuel saving vs v_f range (Ex.1–Ex.5)",
			PaperNote: "paper shape: savings increase as the range narrows (≈7%→13%)",
			Scenarios: toGeneric(Table1Scenarios()),
		},
		{
			Name:      "regularity",
			Title:     "DRL fuel saving vs regularity (Ex.6–Ex.10)",
			PaperNote: "paper shape: savings rise with regularity Ex.7→Ex.10; Ex.6 (pure random) is an outlier",
			Scenarios: toGeneric(RegularityScenarios()),
		},
	}
}

// scenarioByID resolves a generic scenario back to the full ACC scenario.
func scenarioByID(id string) (Scenario, error) {
	all := []Scenario{Fig4Scenario(), StopAndGoScenario()}
	all = append(all, Table1Scenarios()...)
	all = append(all, RegularityScenarios()...)
	for _, sc := range all {
		if sc.ID == id {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("acc: %w %q", plant.ErrUnknownScenario, id)
}

// Instantiate implements plant.Plant.
func (Plant) Instantiate(gsc plant.Scenario) (plant.Instance, error) {
	sc, err := scenarioByID(gsc.ID)
	if err != nil {
		return nil, err
	}
	m, err := ModelFor(sc)
	if err != nil {
		return nil, err
	}
	return &Instance{m: m, sc: sc}, nil
}

// InstantiateWithSets implements plant.Plant: it binds the scenario to a
// model rebuilt around precompiled safety sets, skipping the feasible-set
// projection and safe-set synthesis entirely.
func (Plant) InstantiateWithSets(gsc plant.Scenario, sets core.SafetySets) (plant.Instance, error) {
	sc, err := scenarioByID(gsc.ID)
	if err != nil {
		return nil, err
	}
	m, err := NewModelWithSets(Config{VfMin: sc.VfMin, VfMax: sc.VfMax}, sets)
	if err != nil {
		return nil, err
	}
	return &Instance{m: m, sc: sc}, nil
}

// Instance is an ACC model bound to one scenario's front-vehicle profile.
type Instance struct {
	m  *Model
	sc Scenario
}

// Model exposes the underlying case-study model.
func (in *Instance) Model() *Model { return in.m }

// System implements plant.Instance.
func (in *Instance) System() *lti.System { return in.m.Sys }

// Sets implements plant.Instance.
func (in *Instance) Sets() core.SafetySets { return in.m.Sets }

// Framework implements plant.Instance.
func (in *Instance) Framework(policy core.SkipPolicy, memory int) (*core.Framework, error) {
	return in.m.Framework(policy, memory)
}

// SampleInitialStates implements plant.Instance.
func (in *Instance) SampleInitialStates(n int, rng *rand.Rand) ([]mat.Vec, error) {
	return in.m.SampleInitialStates(n, rng)
}

// Disturbances implements plant.Instance: it draws a front-vehicle speed
// trace from the scenario profile and maps it through the disturbance model
// w = (δ·(v_f − VE), 0).
func (in *Instance) Disturbances(rng *rand.Rand, steps int) []mat.Vec {
	vf := in.sc.Profile.Generate(rng, steps)
	out := make([]mat.Vec, len(vf))
	for i, v := range vf {
		out[i] = in.m.Disturbance(v)
	}
	return out
}

// RunEpisode implements plant.Instance; Cost is metered fuel. The session
// disturbance window is sized for the policy (plant.PolicyMemory), so
// agents trained with r > 1 evaluate correctly.
func (in *Instance) RunEpisode(policy core.SkipPolicy, x0 mat.Vec, w []mat.Vec) (*plant.Episode, error) {
	ep, err := in.m.RunEpisodeW(policy, x0, w, nil, traffic.DefaultFuelModel(), plant.PolicyMemory(policy))
	if err != nil {
		return nil, err
	}
	return &plant.Episode{Result: ep.Result, Cost: ep.Fuel, Energy: ep.Energy}, nil
}

// DRLEncoder implements plant.DeclaredEncoder with the paper's Section IV
// normalization: distance and speed about the setpoint (SRef, VE) over
// the half-widths of the safe box, and the front-speed disturbance over
// its design half-range. The second disturbance channel is identically
// zero and is not encoded.
func (in *Instance) DRLEncoder() *plant.Encoder {
	return plant.FixedEncoder(
		mat.Vec{SRef, VE},
		mat.Vec{(SMax - SMin) / 2, (VMax - VMin) / 2},
		mat.Vec{in.m.WScale()},
	)
}
