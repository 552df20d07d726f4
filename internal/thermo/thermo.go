// Package thermo is the room-thermostat case study, promoted from an
// example to a first-class plant: framework generality beyond driving.
//
// The plant is a two-mass thermal model, Euler-discretized at 30 s. State:
// (room temperature deviation from setpoint, heater core temperature
// deviation). Input: heater power delta. Disturbance: outdoor temperature
// fluctuation and occupancy heat load:
//
//	x⁺ = [0.96 0.05; 0 0.90]·x + [0; 0.12]·u + w,  w ∈ [−0.08, 0.08]×[−0.1, 0.1].
//
// κ is an LQR affine feedback; XI is the maximal robust invariant set of
// the closed loop inside the comfort band intersected with the input-
// admissible region, and X′ = B(XI, 0) ∩ XI as everywhere. Skipping saves
// the controller computation and, more importantly for hardware lifetime,
// actuator switching.
package thermo

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
	"oic/internal/reach"
)

// Plant constants.
const (
	Delta        = 30.0 // seconds per control step
	ComfortBand  = 1.5  // room deviation limit (°C)
	CoreBand     = 6.0  // heater core deviation limit (°C)
	PowerMax     = 3.0  // heater power delta bound
	WTempMax     = 0.08 // weather disturbance bound on the room channel
	WCoreMax     = 0.1  // load disturbance bound on the core channel
	PowerPerUnit = 0.5  // kW per unit of power delta, for the kWh cost metric
	EpisodeSteps = 240  // 2 hours per episode
)

// Weather is the exogenous disturbance process: a diurnal cycle plus a
// persistent bias (cold snap) and uniform noise, clamped to the design
// disturbance box so the safety guarantees stay valid.
type Weather struct {
	Bias        float64 // persistent outdoor bias on the room channel
	CycleAmp    float64 // diurnal-cycle amplitude on the room channel
	CyclePeriod int     // steps per cycle (0 = no cycle)
	Noise       float64 // uniform noise half-range, room channel
	CoreNoise   float64 // uniform noise half-range, core channel (occupancy load)
}

// Trace draws an episode-long disturbance sequence inside the W box.
func (we Weather) Trace(rng *rand.Rand, steps int) []mat.Vec {
	out := make([]mat.Vec, steps)
	for t := range out {
		w0 := we.Bias + we.Noise*(2*rng.Float64()-1)
		if we.CyclePeriod > 0 {
			w0 += we.CycleAmp * math.Sin(2*math.Pi*float64(t)/float64(we.CyclePeriod))
		}
		w1 := we.CoreNoise * (2*rng.Float64() - 1)
		out[t] = mat.Vec{
			min(max(w0, -WTempMax), WTempMax),
			min(max(w1, -WCoreMax), WCoreMax),
		}
	}
	return out
}

// Model bundles the thermal system, the LQR κ, and the safety sets. The
// sets are scenario-independent: every weather pattern lives in the same
// design disturbance box.
type Model struct {
	Sys   *lti.System
	Gain  *mat.Mat
	Kappa controller.Controller
	Sets  core.SafetySets
}

// NewModel constructs the thermostat plant: dynamics, LQR feedback, the
// maximal robust invariant set XI of the closed loop, and X′.
func NewModel() (*Model, error) {
	m, err := newModel()
	if err != nil {
		return nil, fmt.Errorf("thermo: NewModel: %w", err)
	}
	acl, ccl := m.Sys.ClosedLoop(m.Gain, mat.Vec{0, 0}, mat.Vec{0})
	admissible := poly.New(m.Sys.U.A.Mul(m.Gain), m.Sys.U.B.Clone())
	xi, err := reach.MaximalInvariantSet(
		poly.Intersect(m.Sys.X, admissible).ReduceRedundancy(), acl, ccl, m.Sys.W)
	if err != nil {
		return nil, fmt.Errorf("thermo: NewModel: invariant set: %w", err)
	}
	if m.Sets, err = core.ComputeSafetySets(m.Sys, xi); err != nil {
		return nil, fmt.Errorf("thermo: NewModel: %w", err)
	}
	return m, nil
}

// newModel builds what NewModel and a load with given sets (Plant's
// Instantiate) share — the dynamics with their constraint polytopes and
// the LQR feedback κ — leaving Sets to the caller.
func newModel() (*Model, error) {
	a := mat.FromRows([][]float64{
		{0.96, 0.05},
		{0.00, 0.90},
	})
	b := mat.FromRows([][]float64{{0}, {0.12}})
	sys := lti.NewSystem(a, b).WithConstraints(
		poly.Box([]float64{-ComfortBand, -CoreBand}, []float64{ComfortBand, CoreBand}),
		poly.Box([]float64{-PowerMax}, []float64{PowerMax}),
		poly.Box([]float64{-WTempMax, -WCoreMax}, []float64{WTempMax, WCoreMax}),
	)
	k, err := controller.LQR(sys.A, sys.B,
		mat.Diag([]float64{4, 0.2}), mat.Identity(1), 0, 0)
	if err != nil {
		return nil, fmt.Errorf("LQR: %w", err)
	}
	return &Model{Sys: sys, Gain: k, Kappa: controller.NewAffineFeedback(k, nil, nil)}, nil
}

// Plant implements plant.Plant; it is registered under "thermo".
type Plant struct{}

func init() { plant.Register(Plant{}) }

// Name implements plant.Plant.
func (Plant) Name() string { return "thermo" }

// Description implements plant.Plant.
func (Plant) Description() string {
	return "room thermostat with a guaranteed comfort band (LQR, heater-energy cost)"
}

// CostLabel implements plant.Plant.
func (Plant) CostLabel() string { return "kWh" }

// EpisodeSteps implements plant.Plant.
func (Plant) EpisodeSteps() int { return EpisodeSteps }

// scenario couples the generic descriptor with its weather process.
type scenario struct {
	plant.Scenario
	Weather Weather
}

// scenarios is the severity ladder Th.1–Th.4 plus the headline cold snap.
func scenarios() []scenario {
	return []scenario{
		{
			Scenario: plant.Scenario{
				ID:          "Th.1",
				Description: "calm weather: small zero-mean fluctuation",
				Detail:      "noise ±0.02",
			},
			Weather: Weather{Noise: 0.02, CoreNoise: 0.04},
		},
		{
			Scenario: plant.Scenario{
				ID:          "Th.2",
				Description: "diurnal cycle with mild noise",
				Detail:      "cycle 0.04, noise ±0.03",
			},
			Weather: Weather{CycleAmp: 0.04, CyclePeriod: 240, Noise: 0.03, CoreNoise: 0.06},
		},
		{
			Scenario: plant.Scenario{
				ID:          "Th.3",
				Description: "cold snap: persistent negative bias over the diurnal cycle",
				Detail:      "bias −0.04, cycle 0.03",
			},
			Weather: Weather{Bias: -0.04, CycleAmp: 0.03, CyclePeriod: 240, Noise: 0.03, CoreNoise: 0.08},
		},
		{
			Scenario: plant.Scenario{
				ID:          "Th.4",
				Description: "storm: near-full-range disturbance on both channels",
				Detail:      "bias −0.02, noise ±0.06",
			},
			Weather: Weather{Bias: -0.02, Noise: 0.06, CoreNoise: 0.1},
		},
	}
}

// Headline implements plant.Plant: the cold-snap scenario, where the
// monitor genuinely has to force heater interventions.
func (Plant) Headline() plant.Scenario { return scenarios()[2].Scenario }

// Ladders implements plant.Plant: one severity ladder Th.1–Th.4.
func (Plant) Ladders() []plant.Ladder {
	scs := scenarios()
	out := make([]plant.Scenario, len(scs))
	for i, sc := range scs {
		out[i] = sc.Scenario
	}
	return []plant.Ladder{{
		Name:      "weather",
		Title:     "DRL heater-energy saving vs weather severity (Th.1–Th.4)",
		PaperNote: "expected shape: savings shrink as the disturbance grows and forced runs dominate",
		Scenarios: out,
	}}
}

// sharedModel caches the scenario-independent model: every weather
// pattern lives in the same design disturbance box, so the LQR synthesis
// and invariant-set fixpoint run once per process, not once per ladder
// rung. The model is immutable after construction and safe to share.
var sharedModel = sync.OnceValues(NewModel)

// lookup resolves a generic scenario to its weather scenario.
func lookup(gsc plant.Scenario) (scenario, error) {
	for _, sc := range scenarios() {
		if sc.ID == gsc.ID {
			return sc, nil
		}
	}
	return scenario{}, fmt.Errorf("thermo: %w %q", plant.ErrUnknownScenario, gsc.ID)
}

// Instantiate implements plant.Plant. Without sets the model is the
// shared synthesized one; with sets a fresh model is built around them,
// skipping the invariant-set fixpoint — the artifact-load path. Cost is
// heater energy in kWh (Σ‖u‖₁·PowerPerUnit·Δ).
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
		return nil, fmt.Errorf("thermo: Instantiate: %w", err)
	}
	return &plant.Instance{
		Sys:          m.Sys,
		Kappa:        m.Kappa,
		Sets:         m.Sets,
		Disturbances: sc.Weather.Trace,
		StepCost:     func(_, u mat.Vec) float64 { return u.Norm1() },
		Cost:         func(sum float64) float64 { return sum * PowerPerUnit * Delta / 3600 },
	}, nil
}
