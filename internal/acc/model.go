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
	"math/rand"
	"sync"

	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/poly"
	"oic/internal/trace"
	"oic/internal/traffic"
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
)

// Config parameterizes the case-study model. The zero value selects the
// paper's settings.
type Config struct {
	VfMin, VfMax float64 // front-speed design range for the safety sets
	Horizon      int     // RMPC horizon
	StateWeight  float64 // RMPC P (1-norm)
	InputWeight  float64 // RMPC Q (1-norm)
}

func (c Config) withDefaults() Config {
	if c.VfMin == 0 && c.VfMax == 0 {
		c.VfMin, c.VfMax = VfMin, VfMax
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	if c.StateWeight == 0 {
		c.StateWeight = 1
	}
	if c.InputWeight == 0 {
		// The paper does not report P and Q. A light input weight makes the
		// RMPC an attentive tracker — the conservative baseline whose
		// pessimism the skipping framework exploits.
		c.InputWeight = 0.1
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

// NewModelWithSets constructs the model around precompiled safety sets:
// dynamics, equilibrium, and the RMPC program are rebuilt (cheap, exact),
// but the expensive offline synthesis — feasible-set projection and
// ComputeSafetySets — is skipped and the supplied sets are used verbatim.
// This is the artifact-load path; the sets must come from a model built
// with the same Config or behavior will diverge.
func NewModelWithSets(cfg Config, sets core.SafetySets) (*Model, error) {
	if sets.X == nil || sets.XI == nil || sets.XPrime == nil {
		return nil, fmt.Errorf("acc: NewModelWithSets: incomplete safety sets")
	}
	if sets.XI.Dim() != 2 || sets.XPrime.Dim() != 2 {
		return nil, fmt.Errorf("acc: NewModelWithSets: sets have dimension %d, want 2", sets.XI.Dim())
	}
	m, err := newModel(cfg)
	if err != nil {
		return nil, fmt.Errorf("acc: NewModelWithSets: %w", err)
	}
	m.Sets = sets
	return m, nil
}

// newModel builds what NewModel and NewModelWithSets share — the
// defaulted config, the dynamics with their constraint polytopes, the
// equilibrium input, and the compiled RMPC — leaving Sets to the caller.
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
		Horizon:     cfg.Horizon,
		StateWeight: cfg.StateWeight,
		InputWeight: cfg.InputWeight,
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

// Framework assembles an Algorithm 1 loop over this model with the given
// skipping policy and disturbance memory r.
func (m *Model) Framework(policy core.SkipPolicy, memory int) (*core.Framework, error) {
	return core.NewFramework(m.Sys, m.RMPC, m.Sets, policy, memory)
}

// SampleInitialStates draws n random states from the strengthened safe set
// X′ (the paper picks "feasible initial states within X′").
func (m *Model) SampleInitialStates(n int, rng *rand.Rand) ([]mat.Vec, error) {
	return m.Sets.XPrime.Sample(n, rng.Float64)
}

// Episode is the outcome of one simulated 10-second run.
type Episode struct {
	Result *core.Result
	Trace  *trace.Trace // the recorded run: x0 and every executed step
	Fuel   float64      // metered by the traffic fuel model
	Energy float64      // Σ‖u‖₁ (Problem 1's objective)
	VF     []float64    // the front-vehicle speed sequence driven against
}

// RunEpisode executes Algorithm 1 for len(vf) steps from x0 under the given
// policy, then meters fuel over the resulting trajectory. The same x0 and
// vf can be replayed against different policies for paired comparisons.
// The policy sees the paper's default disturbance memory r = 1.
func (m *Model) RunEpisode(policy core.SkipPolicy, x0 mat.Vec, vf []float64, fm *traffic.FuelModel) (*Episode, error) {
	return m.RunEpisodeWithMemory(policy, x0, vf, fm, plant.DefaultMemory)
}

// RunEpisodeWithMemory is RunEpisode with an explicit disturbance-memory
// length r for the policy (needed when evaluating DRL agents trained with
// r > 1).
func (m *Model) RunEpisodeWithMemory(policy core.SkipPolicy, x0 mat.Vec, vf []float64, fm *traffic.FuelModel, memory int) (*Episode, error) {
	w := make([]mat.Vec, len(vf))
	for i, v := range vf {
		w[i] = m.Disturbance(v)
	}
	return m.RunEpisodeW(policy, x0, w, vf, fm, memory)
}

// RunEpisodeW is the disturbance-vector core of RunEpisodeWithMemory: it
// drives Algorithm 1 with an explicit w trace (as the plant-agnostic
// harness does), records the run, and meters fuel over the recorded
// steps. vf may be nil; it is only kept on the episode for reference.
func (m *Model) RunEpisodeW(policy core.SkipPolicy, x0 mat.Vec, w []mat.Vec, vf []float64, fm *traffic.FuelModel, memory int) (*Episode, error) {
	fw, err := m.Framework(policy, memory)
	if err != nil {
		return nil, err
	}
	sess, err := fw.NewSession(x0)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(trace.Meta{Plant: "acc", Policy: policy.Name(), Memory: memory}, x0, m.Sys.NU(), 0)
	for _, wt := range w {
		st, err := sess.Step(wt)
		if err != nil {
			return nil, fmt.Errorf("acc: RunEpisode (%s): %w", policy.Name(), err)
		}
		_ = rec.Append(st) // unlimited, and the model fixes the dimensions
	}
	tr := rec.Trace()
	speeds := append(make([]float64, 0, len(tr.Steps)+1), x0[1])
	cmds := make([]float64, len(tr.Steps))
	for i, st := range tr.Steps {
		speeds = append(speeds, st.X[1])
		cmds[i] = st.U[0]
	}
	if fm == nil {
		fm = traffic.DefaultFuelModel()
	}
	fuel, energy := fm.Episode(speeds, cmds, Delta)
	return &Episode{Result: sess.Result, Trace: tr, Fuel: fuel, Energy: energy, VF: vf}, nil
}
