// Package acc implements the paper's adaptive cruise control case study
// (Section IV): the two-vehicle longitudinal model
//
//	s(t+1) = s(t) − (v(t) − v_f(t))·δ
//	v(t+1) = v(t) − (k·v(t) − u(t))·δ
//
// with δ = 0.1, drag k = 0.2, safe distance s ∈ [120, 180], ego speed
// v ∈ [25, 55], input u ∈ [−40, 40], and front-vehicle speed v_f ∈ [30, 50].
//
// Rewriting around the nominal front speed VE = 40 gives the affine LTI
// form the framework consumes,
//
//	x⁺ = A·x + B·u + c + w,  w = (δ·(v_f − VE), 0) ∈ W,
//
// in physical coordinates, so a skipped control really applies zero
// actuation (and burns idle fuel only). The robust MPC κR, its feasible
// region XI (Proposition 1), and the strengthened safe set X′ are all
// constructed here.
package acc

import (
	"fmt"
	"sync"

	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
)

// Paper constants (Section IV).
const (
	Delta = 0.1 // sampling/control period δ
	Drag  = 0.2 // drag coefficient k

	SMin, SMax = 120.0, 180.0 // safe relative distance
	VMin, VMax = 25.0, 55.0   // ego velocity limits
	UMin, UMax = -40.0, 40.0  // input limits

	VfMin, VfMax = 30.0, 50.0 // front vehicle speed range (Ex.1)
	VE           = 40.0       // nominal front speed

	SRef = 150.0 // distance setpoint (midpoint of the safe range)

	DefaultHorizon = 10 // RMPC prediction horizon (paper: 10)
	EpisodeSteps   = 100

	// The RMPC's 1-norm stage weights P (state) and Q (input). The paper
	// does not report them. A light input weight makes the RMPC an
	// attentive tracker — the conservative baseline whose pessimism the
	// skipping framework exploits.
	stateWeight = 1.0
	inputWeight = 0.1
)

// Config parameterizes the case-study model. The zero value selects the
// paper's settings.
type Config struct {
	VfMin, VfMax float64 // front-speed design range for the safety sets
}

func (c Config) withDefaults() Config {
	if c.VfMin == 0 && c.VfMax == 0 {
		c.VfMin, c.VfMax = VfMin, VfMax
	}
	return c
}

// Model bundles the ACC system, the RMPC κR, and the safety sets.
type Model struct {
	Cfg  Config
	Sys  *lti.System
	RMPC *controller.RMPC
	Sets core.SafetySets
	URef mat.Vec // equilibrium input (8 at v = 40)
	XRef mat.Vec // (SRef, VE)
}

// NewModel constructs the case study: dynamics, constraint polytopes, the
// RMPC, its feasible region XI (Proposition 1), and X′.
func NewModel(cfg Config) (*Model, error) {
	m, err := newModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("acc: NewModel: %w", err)
	}
	// Proposition 1: the RMPC's feasible region is its robust control
	// invariant set.
	xi, err := m.RMPC.FeasibleSet()
	if err != nil {
		return nil, fmt.Errorf("acc: NewModel: feasible set: %w", err)
	}
	if m.Sets, err = core.ComputeSafetySets(m.Sys, xi); err != nil {
		return nil, fmt.Errorf("acc: NewModel: %w", err)
	}
	return m, nil
}

// newModel builds what NewModel and a load with given sets (Plant's
// Instantiate) share — the defaulted config, the dynamics with their
// constraint polytopes, the equilibrium input, and the compiled RMPC —
// leaving Sets to the caller.
func newModel(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.VfMin >= cfg.VfMax {
		return nil, fmt.Errorf("bad v_f range [%g, %g]", cfg.VfMin, cfg.VfMax)
	}

	a := mat.FromRows([][]float64{{1, -Delta}, {0, 1 - Drag*Delta}})
	b := mat.FromRows([][]float64{{0}, {Delta}})
	sys := lti.NewSystem(a, b).
		WithDrift(mat.Vec{Delta * VE, 0}).
		WithConstraints(
			poly.Box([]float64{SMin, VMin}, []float64{SMax, VMax}),
			poly.Box([]float64{UMin}, []float64{UMax}),
			poly.Box([]float64{Delta * (cfg.VfMin - VE), 0}, []float64{Delta * (cfg.VfMax - VE), 0}),
		)

	xref := mat.Vec{SRef, VE}
	uref, err := controller.EquilibriumInput(sys, xref, 0)
	if err != nil {
		return nil, err
	}
	rmpc, err := controller.NewRMPC(sys, controller.RMPCConfig{
		Horizon:     DefaultHorizon,
		StateWeight: stateWeight,
		InputWeight: inputWeight,
		XRef:        xref,
		URef:        uref,
	})
	if err != nil {
		return nil, err
	}
	return &Model{Cfg: cfg, Sys: sys, RMPC: rmpc, URef: uref, XRef: xref}, nil
}

// modelCache memoizes model construction per configuration, mirroring the
// scenario-independent sync.OnceValues caches thermo and orbit use. acc
// cannot share a single model — its safety sets depend on the scenario's
// v_f design range — so the cache is keyed by the defaulted Config: the
// expensive offline pipeline (tightening, terminal set, feasible-set
// projection, X′) runs once per distinct range per process instead of once
// per Instantiate. Construction errors are not cached; they re-derive
// cheaply and keep the cache free of dead entries.
var modelCache sync.Map // Config → *modelEntry

type modelEntry struct {
	once sync.Once
	m    *Model
	err  error
}

// SharedModel returns the process-wide memoized model for cfg. The result
// is shared: its sets and compiled RMPC program are immutable, and
// sessions fork per-session solver workspaces, so sharing is safe for
// concurrent evaluation workers.
func SharedModel(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	e, _ := modelCache.LoadOrStore(cfg, &modelEntry{})
	entry := e.(*modelEntry)
	entry.once.Do(func() { entry.m, entry.err = NewModel(cfg) })
	if entry.err != nil {
		modelCache.Delete(cfg)
	}
	return entry.m, entry.err
}

// Disturbance maps a front-vehicle speed to the model disturbance vector
// w = (δ·(v_f − VE), 0).
func (m *Model) Disturbance(vf float64) mat.Vec {
	return mat.Vec{Delta * (vf - VE), 0}
}

// WScale returns the design half-range of the scalar disturbance, used to
// normalize DRL features.
func (m *Model) WScale() float64 {
	s := Delta * (m.Cfg.VfMax - VE)
	if d := Delta * (VE - m.Cfg.VfMin); d > s {
		s = d
	}
	if s <= 0 {
		s = 1
	}
	return s
}
