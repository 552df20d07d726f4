package acc

import (
	"fmt"
	"math/rand"

	"oic/internal/core"
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

// Instantiate implements plant.Plant. Without sets the model is the
// memoized one for the scenario's v_f design range (ModelFor); with sets
// a fresh model is built around them, skipping the feasible-set
// projection and safe-set synthesis entirely.
func (Plant) Instantiate(gsc plant.Scenario, sets *core.SafetySets) (*plant.Instance, error) {
	sc, err := scenarioByID(gsc.ID)
	if err != nil {
		return nil, err
	}
	var m *Model
	if sets == nil {
		m, err = ModelFor(sc)
	} else if m, err = newModel(Config{VfMin: sc.VfMin, VfMax: sc.VfMax}); err == nil {
		m.Sets = *sets
	}
	if err != nil {
		return nil, fmt.Errorf("acc: Instantiate: %w", err)
	}
	return newInstance(m, sc), nil
}

// newInstance binds m to the scenario's front-vehicle profile. A step
// burns Rate(v, u)·δ on the traffic fuel model, v the pre-step speed, so
// an episode's cost is FuelModel.Episode's fuel, summed in the same
// order. The DRL encoder is the paper's Section IV normalization:
// distance and speed about the setpoint (SRef, VE) over the half-widths
// of the safe box, and the front-speed disturbance over its design
// half-range. The second disturbance channel is identically zero and is
// not encoded.
func newInstance(m *Model, sc Scenario) *plant.Instance {
	fm := traffic.DefaultFuelModel()
	return &plant.Instance{
		Sys:   m.Sys,
		Kappa: m.RMPC,
		Sets:  m.Sets,
		// w = (δ·(v_f − VE), 0) over a front-vehicle speed trace drawn
		// from the scenario profile.
		Disturbances: func(rng *rand.Rand, steps int) []mat.Vec {
			vf := sc.Profile.Generate(rng, steps)
			out := make([]mat.Vec, len(vf))
			for i, v := range vf {
				out[i] = m.Disturbance(v)
			}
			return out
		},
		StepCost: func(x, u mat.Vec) float64 { return fm.Rate(x[1], u[0]) * Delta },
		Cost:     func(sum float64) float64 { return sum },
		Encoder: plant.FixedEncoder(
			mat.Vec{SRef, VE},
			mat.Vec{(SMax - SMin) / 2, (VMax - VMin) / 2},
			mat.Vec{m.WScale()},
		),
	}
}
