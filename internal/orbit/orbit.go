// Package orbit is a spacecraft station-keeping case study, after the
// impulsive orbit-keeping setting of Ong, Bahati & Ames (2022): a double
// integrator tracking the center of a station-keeping window under bounded
// perturbation accelerations (drag, solar radiation pressure, third-body
// residuals), with impulsive thrust bounds.
//
// State: (along-track position deviation p, velocity deviation v) in
// normalized units. One control period δ is one decision epoch:
//
//	p⁺ = p + v·δ + δ²/2·u + w_p
//	v⁺ = v + u·δ + w_v
//
// κ is the same tube-based RMPC as the ACC case study (Eq. 5), so the
// plant exercises the Proposition 1 feasible-set route to XI on a second,
// marginally stable system. The cost metric is Δv = Σ|u|·δ — the
// propellant currency of station-keeping: every skipped step is a thrust
// opportunity the spacecraft declines at zero propellant.
package orbit

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/poly"
)

// Plant constants (normalized units).
const (
	Delta = 1.0 // decision period

	PosMax = 10.0 // station-keeping window half-width
	VelMax = 1.0  // velocity deviation bound
	UMax   = 0.2  // impulsive thrust acceleration bound

	WPosMax = 0.01 // design bound, position channel perturbation
	WVelMax = 0.02 // design bound, velocity channel perturbation

	DefaultHorizon = 10
	EpisodeSteps   = 120
)

// SpaceWeather is the exogenous perturbation process: an orbital-harmonic
// component (periodic drag/SRP variation), a bounded random walk, and
// uniform noise, clamped to the design disturbance box.
type SpaceWeather struct {
	HarmonicAmp float64 // harmonic amplitude on the velocity channel
	Period      int     // harmonic period in steps (0 = none)
	WalkStep    float64 // random-walk step half-range, velocity channel
	Noise       float64 // uniform noise half-range, velocity channel
	PosNoise    float64 // uniform noise half-range, position channel
}

// Trace draws an episode-long perturbation sequence inside the W box.
func (sw SpaceWeather) Trace(rng *rand.Rand, steps int) []mat.Vec {
	out := make([]mat.Vec, steps)
	walk := 0.0
	for t := range out {
		wv := sw.Noise * (2*rng.Float64() - 1)
		if sw.Period > 0 {
			wv += sw.HarmonicAmp * math.Sin(2*math.Pi*float64(t)/float64(sw.Period))
		}
		if sw.WalkStep > 0 {
			walk = min(max(walk+sw.WalkStep*(2*rng.Float64()-1), -WVelMax), WVelMax)
			wv += walk
		}
		wp := sw.PosNoise * (2*rng.Float64() - 1)
		out[t] = mat.Vec{
			min(max(wp, -WPosMax), WPosMax),
			min(max(wv, -WVelMax), WVelMax),
		}
	}
	return out
}

// Model bundles the station-keeping system, the RMPC κ, and the safety
// sets. Like the ACC model, XI is the RMPC's feasible region
// (Proposition 1) and X′ = B(XI, 0) ∩ XI.
type Model struct {
	Sys  *lti.System
	RMPC *controller.RMPC
	Sets core.SafetySets
}

// NewModel constructs the station-keeping plant.
func NewModel() (*Model, error) {
	m, err := newModel()
	if err != nil {
		return nil, fmt.Errorf("orbit: NewModel: %w", err)
	}
	xi, err := m.RMPC.FeasibleSet()
	if err != nil {
		return nil, fmt.Errorf("orbit: NewModel: feasible set: %w", err)
	}
	if m.Sets, err = core.ComputeSafetySets(m.Sys, xi); err != nil {
		return nil, fmt.Errorf("orbit: NewModel: %w", err)
	}
	return m, nil
}

// newModel builds what NewModel and a load with given sets (Plant's
// Instantiate) share — the dynamics with their constraint polytopes and
// the compiled RMPC — leaving Sets to the caller.
func newModel() (*Model, error) {
	a := mat.FromRows([][]float64{{1, Delta}, {0, 1}})
	b := mat.FromRows([][]float64{{Delta * Delta / 2}, {Delta}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-PosMax, -VelMax}, []float64{PosMax, VelMax}),
		poly.Box([]float64{-UMax}, []float64{UMax}),
		poly.Box([]float64{-WPosMax, -WVelMax}, []float64{WPosMax, WVelMax}),
	)
	rmpc, err := controller.NewRMPC(sys, controller.RMPCConfig{
		Horizon:     DefaultHorizon,
		StateWeight: 1,
		InputWeight: 0.1,
	})
	if err != nil {
		return nil, err
	}
	return &Model{Sys: sys, RMPC: rmpc}, nil
}

// Plant implements plant.Plant; it is registered under "orbit".
type Plant struct{}

func init() { plant.Register(Plant{}) }

// Name implements plant.Plant.
func (Plant) Name() string { return "orbit" }

// Description implements plant.Plant.
func (Plant) Description() string {
	return "spacecraft station-keeping with impulsive thrust bounds, after Ong et al. 2022 (RMPC, Δv cost)"
}

// CostLabel implements plant.Plant.
func (Plant) CostLabel() string { return "Δv" }

// EpisodeSteps implements plant.Plant.
func (Plant) EpisodeSteps() int { return EpisodeSteps }

// scenario couples the generic descriptor with its perturbation process.
type scenario struct {
	plant.Scenario
	Weather SpaceWeather
}

// scenarios is the space-weather ladder Orb.1–Orb.4.
func scenarios() []scenario {
	return []scenario{
		{
			Scenario: plant.Scenario{
				ID:          "Orb.1",
				Description: "quiet: small uncorrelated perturbations",
				Detail:      "noise ±0.005",
			},
			Weather: SpaceWeather{Noise: 0.005, PosNoise: 0.002},
		},
		{
			Scenario: plant.Scenario{
				ID:          "Orb.2",
				Description: "nominal: slowly varying drag via a bounded random walk",
				Detail:      "walk ±0.004/step",
			},
			Weather: SpaceWeather{WalkStep: 0.004, Noise: 0.004, PosNoise: 0.004},
		},
		{
			Scenario: plant.Scenario{
				ID:          "Orb.3",
				Description: "active: orbital-harmonic drag/SRP variation with noise",
				Detail:      "harmonic 0.012 / 60 steps",
			},
			Weather: SpaceWeather{HarmonicAmp: 0.012, Period: 60, Noise: 0.004, PosNoise: 0.004},
		},
		{
			Scenario: plant.Scenario{
				ID:          "Orb.4",
				Description: "storm: near-full-range perturbations on both channels",
				Detail:      "noise ±0.018",
			},
			Weather: SpaceWeather{Noise: 0.018, PosNoise: 0.009},
		},
	}
}

// Headline implements plant.Plant: the harmonic Orb.3 scenario — the most
// structure for a learned policy to exploit, like the ACC's Fig. 4
// sinusoid.
func (Plant) Headline() plant.Scenario { return scenarios()[2].Scenario }

// Ladders implements plant.Plant: one space-weather severity ladder.
func (Plant) Ladders() []plant.Ladder {
	scs := scenarios()
	out := make([]plant.Scenario, len(scs))
	for i, sc := range scs {
		out[i] = sc.Scenario
	}
	return []plant.Ladder{{
		Name:      "weather",
		Title:     "DRL Δv saving vs space-weather severity (Orb.1–Orb.4)",
		PaperNote: "expected shape: savings shrink as perturbations approach the design bound",
		Scenarios: out,
	}}
}

// sharedModel caches the scenario-independent model: every space-weather
// pattern shares the same design disturbance box, so the RMPC synthesis
// and feasible-set projection run once per process. The model is
// immutable after construction (the feasible set is materialized inside
// NewModel) and safe to share.
var sharedModel = sync.OnceValues(NewModel)

// lookup resolves a generic scenario to its space-weather scenario.
func lookup(gsc plant.Scenario) (scenario, error) {
	for _, sc := range scenarios() {
		if sc.ID == gsc.ID {
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("orbit: %w %q", plant.ErrUnknownScenario, gsc.ID)
}

// Instantiate implements plant.Plant. Without sets the model is the
// shared synthesized one; with sets a fresh model is built around them,
// skipping the feasible-set projection — the artifact-load path. Cost is
// Δv = Σ‖u‖₁·δ.
func (Plant) Instantiate(gsc plant.Scenario, sets *core.SafetySets) (*plant.Instance, error) {
	sc, err := lookup(gsc)
	if err != nil {
		return nil, err
	}
	var m *Model
	if sets == nil {
		m, err = sharedModel()
	} else if m, err = newModel(); err == nil {
		m.Sets = *sets
	}
	if err != nil {
		return nil, fmt.Errorf("orbit: Instantiate: %w", err)
	}
	return &plant.Instance{
		Sys:          m.Sys,
		Kappa:        m.RMPC,
		Sets:         m.Sets,
		Disturbances: sc.Weather.Trace,
		StepCost:     func(_, u mat.Vec) float64 { return u.Norm1() },
		Cost:         func(sum float64) float64 { return sum * Delta },
	}, nil
}
