package acc

import (
	"errors"
	"fmt"
	"math/rand"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/rl"
	"oic/internal/traffic"
)

// Paper hyper-parameters for the DRL skipping agent (Section IV): reward
// weights w₁ = 0.01 (leaving X′) and w₂ = 0.0001 (energy), perturbation
// memory r = 1. Single-sourced from the plant package so every case study
// trains with the same paper defaults.
const (
	DefaultW1     = plant.DefaultW1
	DefaultW2     = plant.DefaultW2
	DefaultMemory = plant.DefaultMemory
)

// Encode builds the DRL agent state from the physical state and the recent
// observed disturbances (most recent last): the paper's
// s(t) = {x(t), w(t−r+1), …, w(t)}, normalized to O(1) feature ranges.
func (m *Model) Encode(x mat.Vec, wRecent []mat.Vec) mat.Vec {
	ws := m.WScale()
	out := make(mat.Vec, 2+len(wRecent))
	out[0] = (x[0] - SRef) / ((SMax - SMin) / 2)
	out[1] = (x[1] - VE) / ((VMax - VMin) / 2)
	for i, w := range wRecent {
		out[2+i] = w[0] / ws
	}
	return out
}

// DRLEnv adapts the framework session to rl.Env with the paper's reward:
//
//	R(s, z, s') = −w₁·[x' ∉ X′] − w₂·‖u‖₁,
//
// where u is the actually applied input (κ's output when z = 1 or when the
// monitor forces it; zero on a skip). Safety is enforced by the monitor
// during training, so exploration can never leave XI.
type DRLEnv struct {
	m       *Model
	profile traffic.Profile
	steps   int
	w1, w2  float64
	memory  int

	fw   *core.Framework
	sess *core.Session
	vf   []float64
	t    int
}

// NewDRLEnv builds a training environment. steps is the episode length
// (paper: 100); w1/w2 ≤ 0 select the paper defaults.
func NewDRLEnv(m *Model, profile traffic.Profile, steps int, w1, w2 float64, memory int) (*DRLEnv, error) {
	if steps <= 0 {
		steps = EpisodeSteps
	}
	if w1 <= 0 {
		w1 = DefaultW1
	}
	if w2 <= 0 {
		w2 = DefaultW2
	}
	if memory <= 0 {
		memory = DefaultMemory
	}
	// The framework policy is never consulted: the agent supplies choices
	// through StepWithChoice. BangBang is a placeholder.
	fw, err := m.Framework(core.BangBang{}, memory)
	if err != nil {
		return nil, err
	}
	return &DRLEnv{m: m, profile: profile, steps: steps, w1: w1, w2: w2, memory: memory, fw: fw}, nil
}

// StateDim returns the agent state dimension (2 + memory).
func (e *DRLEnv) StateDim() int { return 2 + e.memory }

// Reset implements rl.Env.
func (e *DRLEnv) Reset(rng *rand.Rand) (mat.Vec, error) {
	x0s, err := e.m.SampleInitialStates(1, rng)
	if err != nil {
		return nil, fmt.Errorf("acc: DRLEnv.Reset: sampling X′: %w", err)
	}
	if len(x0s) == 0 {
		return nil, errors.New("acc: DRLEnv.Reset: sampling X′: empty sample")
	}
	e.vf = e.profile.Generate(rng, e.steps)
	sess, err := e.fw.NewSession(x0s[0])
	if err != nil {
		return nil, err
	}
	e.sess = sess
	e.t = 0
	return e.m.Encode(x0s[0], sess.RecentWView()), nil
}

// Step implements rl.Env.
func (e *DRLEnv) Step(action int) (mat.Vec, float64, bool, error) {
	if e.sess == nil {
		return nil, 0, true, errors.New("acc: DRLEnv.Step: call Reset first")
	}
	if e.t >= e.steps {
		return nil, 0, true, errors.New("acc: DRLEnv.Step: episode exhausted")
	}
	st, err := e.sess.StepWithChoice(e.m.Disturbance(e.vf[e.t]), action == 1)
	if err != nil {
		return nil, 0, true, err
	}
	e.t++

	r1 := 0.0
	if !e.m.Sets.XPrime.Contains(st.X, 1e-9) {
		r1 = 1
	}
	r2 := st.U.Norm1()
	reward := -e.w1*r1 - e.w2*r2

	done := e.t >= e.steps
	return e.m.Encode(st.X, e.sess.RecentWView()), reward, done, nil
}

// TrainConfig tunes DRL training for a scenario.
type TrainConfig struct {
	Episodes int     // default 200
	Steps    int     // episode length; default 100
	W1, W2   float64 // reward weights; defaults are the paper's
	Memory   int     // perturbation memory r; default 1
	Seed     int64   // default 1
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Episodes == 0 {
		c.Episodes = 200
	}
	if c.Steps == 0 {
		c.Steps = EpisodeSteps
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TrainDRL trains a double-DQN skipping agent against the given front-
// vehicle profile using the paper's double deep Q-learning setup.
func (m *Model) TrainDRL(profile traffic.Profile, tc TrainConfig) (*rl.DDQN, rl.TrainStats, error) {
	tc = tc.withDefaults()
	env, err := NewDRLEnv(m, profile, tc.Steps, tc.W1, tc.W2, tc.Memory)
	if err != nil {
		return nil, rl.TrainStats{}, err
	}
	totalSteps := tc.Episodes * tc.Steps
	agent, err := rl.NewDDQN(rl.Config{
		StateDim:   env.StateDim(),
		NumActions: 2,
		Hidden:     []int{64, 64},
		Gamma:      0.95,
		EpsDecay:   totalSteps * 6 / 10,
		BatchSize:  32,
		ReplayCap:  totalSteps,
		TargetSync: 250,
		WarmUp:     500,
		Seed:       tc.Seed,
	})
	if err != nil {
		return nil, rl.TrainStats{}, err
	}
	stats, err := rl.Train(agent, env, tc.Episodes, tc.Steps)
	if err != nil {
		return nil, stats, fmt.Errorf("acc: TrainDRL: %w", err)
	}
	return agent, stats, nil
}

// DRLPolicy wraps a trained agent's greedy action as a framework skipping
// policy (z = 1 ⇔ the agent's action is 1).
func (m *Model) DRLPolicy(agent *rl.DDQN) core.SkipPolicy {
	return core.PolicyFunc{
		Fn: func(_ int, x mat.Vec, wRecent []mat.Vec) bool {
			return agent.Greedy(m.Encode(x, wRecent)) == 1
		},
		Label: "drl-ddqn",
	}
}
