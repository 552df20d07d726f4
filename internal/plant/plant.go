// Package plant defines the case-study abstraction the experiment harness
// is generic over. The paper's framework (Algorithm 1 + Theorem 1) is
// plant-agnostic: it needs only an affine LTI model, the nested safety sets
// X′ ⊆ XI ⊆ X, a safe controller κ, and a cost to minimize by skipping.
// A Plant packages exactly that, plus the experimental surface the paper's
// evaluation exercises — a headline scenario (Fig. 4), Table-I-style
// scenario ladders (Fig. 5 / Fig. 6), and a trainable skipping policy.
//
// New case studies register themselves (see Register) and immediately gain
// the whole evaluation pipeline: paired-case experiments, scenario sweeps,
// the timing analysis, CSV export, and the cmd/oic CLI.
package plant

import (
	"fmt"
	"math/rand"

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

// Instance is a plant configured for one scenario: concrete dynamics,
// safety sets, and an episode runner. TrainDRL learns its skipping
// policy. Instances must be safe for concurrent RunEpisode calls (the
// harness evaluates cases in parallel).
type Instance interface {
	// System returns the affine LTI plant with its X/U/W constraint sets.
	System() *lti.System

	// Sets returns the nested safety sets X′ ⊆ XI ⊆ X of the scenario.
	Sets() core.SafetySets

	// Framework assembles an Algorithm 1 loop with the given skipping
	// policy and disturbance-memory length r.
	Framework(policy core.SkipPolicy, memory int) (*core.Framework, error)

	// SampleInitialStates draws n states from the strengthened safe set X′.
	SampleInitialStates(n int, rng *rand.Rand) ([]mat.Vec, error)

	// Disturbances draws an episode-long disturbance trace from the
	// scenario's exogenous process. Every element must lie in System().W,
	// or the framework's guarantees are void (the audit package checks).
	Disturbances(rng *rand.Rand, steps int) []mat.Vec

	// RunEpisode executes Algorithm 1 for len(w) steps from x0 under the
	// policy and meters the plant cost over the resulting trajectory.
	RunEpisode(policy core.SkipPolicy, x0 mat.Vec, w []mat.Vec) (*Episode, error)
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
	// Instantiate builds the model and safety sets for a scenario. The
	// scenario must be one returned by Headline or Ladders.
	Instantiate(sc Scenario) (Instance, error)
	// InstantiateWithSets is Instantiate around precompiled safety sets:
	// the dynamics and κ are rebuilt, while the expensive offline
	// synthesis (invariant-set computation, MPC feasible-set projection)
	// is skipped — the load half of the artifact pipeline. The sets must
	// come from an Instantiate of the same scenario.
	InstantiateWithSets(sc Scenario, sets core.SafetySets) (Instance, error)
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

// RunFramework executes Algorithm 1 over inst from x0 for the disturbance
// trace w and returns the raw result — the common core of every plant's
// RunEpisode implementation. The session's disturbance window is sized
// for the policy via PolicyMemory.
func RunFramework(inst Instance, policy core.SkipPolicy, x0 mat.Vec, w []mat.Vec) (*core.Result, error) {
	fw, err := inst.Framework(policy, PolicyMemory(policy))
	if err != nil {
		return nil, err
	}
	sess, err := fw.NewSession(x0)
	if err != nil {
		return nil, err
	}
	for _, wt := range w {
		if _, err := sess.Step(wt); err != nil {
			return nil, fmt.Errorf("plant: RunFramework (%s): %w", policy.Name(), err)
		}
	}
	return sess.Result, nil
}
