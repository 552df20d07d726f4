// Package plant defines the case-study abstraction the experiment harness
// is generic over. The paper's framework (Algorithm 1 + Theorem 1) is
// plant-agnostic: it needs only an affine LTI model, the nested safety sets
// X′ ⊆ XI ⊆ X, a safe controller κ, and a cost to minimize by skipping.
// An Instance holds exactly that, and a Plant adds the experimental surface
// the paper's evaluation exercises — a headline scenario (Fig. 4),
// Table-I-style scenario ladders (Fig. 5 / Fig. 6), and a trainable
// skipping policy.
//
// New case studies register themselves (see Register) and immediately gain
// the whole evaluation pipeline: paired-case experiments, scenario sweeps,
// the timing analysis, CSV export, and the cmd/oic CLI.
package plant

import (
	"fmt"
	"math/rand"

	"oic/internal/controller"
	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
)

// Scenario identifies one experimental setting of a plant: an exogenous
// disturbance process plus (possibly) scenario-specific safety sets.
type Scenario struct {
	ID          string // e.g. "Ex.1", "Fig.4", "Th.2"
	Description string // one-line human description
	Detail      string // short setting summary for table rows (e.g. "v_f ∈ [30, 50]")
}

// Ladder is an ordered family of scenarios swept by one experiment — the
// shape of the paper's Table I / Fig. 5 (shrinking disturbance ranges) and
// Fig. 6 (increasing regularity).
type Ladder struct {
	Name      string // short key, e.g. "range" or "regularity"
	Title     string // report heading
	PaperNote string // expected qualitative shape, if the paper states one
	Scenarios []Scenario
}

// TrainConfig tunes learned-skip-policy training for one scenario.
type TrainConfig struct {
	Episodes int     // training episodes (0 = plant default)
	Steps    int     // episode length (0 = plant default)
	Seed     int64   // RNG seed (0 = 1)
	W1, W2   float64 // reward weights (≤ 0 = plant/paper defaults)
	Memory   int     // disturbance-memory length r (0 = 1)
}

// Episode is the outcome of one simulated run of Algorithm 1.
type Episode struct {
	Result *core.Result
	Cost   float64 // plant-specific resource metric (fuel, kWh, Δv)
	Energy float64 // Σ‖u‖₁ — Problem 1's objective, common to all plants
}

// Instance is a plant configured for one scenario. Plants build their
// model and fill it; framework assembly, initial-state sampling and the
// episode runner are written once, here. An Instance is immutable once
// built and safe for concurrent RunEpisode calls (the harness evaluates
// cases in parallel), so its function fields must be too.
type Instance struct {
	Sys   *lti.System           // the affine LTI plant with its X, U and W sets
	Kappa controller.Controller // the safe controller κ
	Sets  core.SafetySets       // the nested safety sets X′ ⊆ XI ⊆ X

	// Disturbances draws an episode-long disturbance trace from the
	// scenario's exogenous process. Every element must lie in Sys.W, or
	// the framework's guarantees are void (the audit package checks).
	Disturbances func(rng *rand.Rand, steps int) []mat.Vec

	// StepCost meters one executed step from its pre-step state x and
	// applied input u; Cost maps the sum of StepCost over an episode, in
	// step order, to the plant's resource metric (Episode.Cost).
	StepCost func(x, u mat.Vec) float64
	Cost     func(sum float64) float64

	// Encoder, when set, fixes the DRL normalization bounds instead of
	// deriving them from the bounding boxes of X and W (the ACC fixes the
	// paper's Section IV constants). The trainer encodes with it, and
	// RestoreDRLPolicy requires a snapshot to carry exactly its bounds.
	Encoder *Encoder
}

// Framework assembles an Algorithm 1 loop over the instance with the
// given skipping policy and disturbance-memory length r.
func (in *Instance) Framework(policy core.SkipPolicy, memory int) (*core.Framework, error) {
	return core.NewFramework(in.Sys, in.Kappa, in.Sets, policy, memory)
}

// SampleInitialStates draws n states from the strengthened safe set X′
// (the paper picks "feasible initial states within X′").
func (in *Instance) SampleInitialStates(n int, rng *rand.Rand) ([]mat.Vec, error) {
	return in.Sets.XPrime.Sample(n, rng.Float64)
}

// RunEpisode executes Algorithm 1 for len(w) steps from x0 under the
// policy and meters the plant cost as it goes: StepCost of every executed
// step, summed in step order and mapped through Cost. Nothing is
// recorded. The session's disturbance window is sized for the policy
// (PolicyMemory), so agents trained with r > 1 evaluate correctly.
func (in *Instance) RunEpisode(policy core.SkipPolicy, x0 mat.Vec, w []mat.Vec) (*Episode, error) {
	fw, err := in.Framework(policy, PolicyMemory(policy))
	if err != nil {
		return nil, err
	}
	sess, err := fw.NewSession(x0)
	if err != nil {
		return nil, err
	}
	// The pre-step state is copied: a step's views are overwritten by the
	// next step.
	x := x0.Clone()
	sum := 0.0
	for _, wt := range w {
		st, err := sess.Step(wt)
		if err != nil {
			return nil, fmt.Errorf("plant: RunEpisode (%s): %w", policy.Name(), err)
		}
		sum += in.StepCost(x, st.U)
		copy(x, st.X)
	}
	return &Episode{Result: sess.Result, Cost: in.Cost(sum), Energy: sess.Result.Energy}, nil
}

// Plant is a registered case study: a scenario catalogue plus a factory
// for scenario-configured instances.
type Plant interface {
	// Name is the registry key (e.g. "acc", "thermo", "orbit").
	Name() string
	// Description is a one-line summary for the CLI listing.
	Description() string
	// CostLabel names the unit of Episode.Cost (e.g. "fuel", "kWh", "Δv").
	CostLabel() string
	// EpisodeSteps is the default episode length.
	EpisodeSteps() int
	// Headline is the plant's Fig.4-style flagship scenario.
	Headline() Scenario
	// Ladders returns the plant's scenario sweeps, most important first.
	Ladders() []Ladder
	// Instantiate builds the model and safety sets for a scenario, which
	// must be one returned by Headline or Ladders. Nil sets are
	// synthesized (invariant-set computation, MPC feasible-set
	// projection). Given sets are used verbatim and only the dynamics and
	// κ are rebuilt — the load half of the artifact pipeline; they must
	// come from an Instantiate of the same scenario.
	Instantiate(sc Scenario, sets *core.SafetySets) (*Instance, error)
}

// MemoryPolicy is an optional extension for skip policies that were
// trained with a disturbance-memory length r > 1: episode runners must
// build the framework session with a matching window or the policy's
// feature vector has the wrong dimension.
type MemoryPolicy interface {
	core.SkipPolicy
	// PolicyMemory returns the r the policy was trained with.
	PolicyMemory() int
}

// PolicyMemory returns the disturbance-memory length an episode run needs
// for the given policy: the policy's own requirement when it declares one
// (MemoryPolicy), the paper's default r = 1 otherwise.
func PolicyMemory(p core.SkipPolicy) int {
	if mp, ok := p.(MemoryPolicy); ok {
		if m := mp.PolicyMemory(); m > 0 {
			return m
		}
	}
	return DefaultMemory
}
