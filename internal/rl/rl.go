// Package rl implements the deep reinforcement learning machinery for the
// paper's DRL-based skipping decision function Ω: a replay buffer, an
// ε-greedy exploration schedule, and double deep Q-learning (Van Hasselt,
// Guez, Silver 2016 — the paper's reference [24]).
//
// The agent's state is the paper's s(t) = {x(t), w(t−r+1), …, w(t)}; its
// two actions are z = 0 (skip) and z = 1 (run the controller); the reward
// is R = −w₁·[x⁺ ∉ X′] − w₂·‖κ(x)‖₁ (Section III-B.2). The environment
// that realizes this reward on top of the core framework lives in the case
// study packages; package rl is task-agnostic.
package rl

import (
	"fmt"
	"math/rand"

	"oic/internal/mat"
	"oic/internal/nn"
)

// Transition is one (s, a, r, s', done) experience tuple.
type Transition struct {
	S    mat.Vec
	A    int
	R    float64
	S2   mat.Vec
	Done bool
}

// Replay is a fixed-capacity ring buffer of transitions with uniform
// sampling.
type Replay struct {
	buf  []Transition
	next int
	full bool
}

// NewReplay returns a buffer holding up to capacity transitions.
func NewReplay(capacity int) *Replay {
	if capacity < 1 {
		panic("rl: NewReplay: capacity must be positive")
	}
	return &Replay{buf: make([]Transition, 0, capacity)}
}

// Add stores a transition, evicting the oldest when full.
func (r *Replay) Add(tr Transition) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, tr)
		return
	}
	r.full = true
	r.buf[r.next] = tr
	r.next = (r.next + 1) % cap(r.buf)
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Sample draws n transitions uniformly with replacement.
func (r *Replay) Sample(n int, rng *rand.Rand) []Transition {
	out := make([]Transition, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}

// Config parameterizes a double DQN agent. Zero values select the listed
// defaults.
type Config struct {
	StateDim   int   // required
	NumActions int   // required (2 for the skipping problem)
	Hidden     []int // hidden layer sizes; default {64, 64}

	LearningRate float64 // default 1e-3
	Gamma        float64 // discount; default 0.95
	EpsStart     float64 // initial exploration rate; default 1.0
	EpsEnd       float64 // final exploration rate; default 0.05
	EpsDecay     int     // steps to anneal epsilon over; default 10000
	BatchSize    int     // default 32
	ReplayCap    int     // default 20000
	TargetSync   int     // online→target sync period in steps; default 250
	WarmUp       int     // transitions before learning starts; default 500
	Seed         int64   // RNG seed; default 1
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1e-3
	}
	if c.Gamma == 0 {
		c.Gamma = 0.95
	}
	if c.EpsStart == 0 {
		c.EpsStart = 1.0
	}
	if c.EpsEnd == 0 {
		c.EpsEnd = 0.05
	}
	if c.EpsDecay == 0 {
		c.EpsDecay = 10000
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ReplayCap == 0 {
		c.ReplayCap = 20000
	}
	if c.TargetSync == 0 {
		c.TargetSync = 250
	}
	if c.WarmUp == 0 {
		c.WarmUp = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DDQN is a double deep Q-learning agent.
type DDQN struct {
	cfg    Config
	online *nn.MLP
	target *nn.MLP
	opt    *nn.Adam
	grads  *nn.Grads
	replay *Replay
	rng    *rand.Rand

	steps     int // environment steps observed
	trainOps  int // gradient updates performed
	lossEMA   float64
	lossCount int
}

// NewDDQN builds an agent from the config.
func NewDDQN(cfg Config) (*DDQN, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDim < 1 || cfg.NumActions < 2 {
		return nil, fmt.Errorf("rl: NewDDQN: bad dims (state %d, actions %d)", cfg.StateDim, cfg.NumActions)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := append(append([]int{cfg.StateDim}, cfg.Hidden...), cfg.NumActions)
	online := nn.NewMLP(sizes, rng)
	return &DDQN{
		cfg:    cfg,
		online: online,
		target: online.Clone(),
		opt:    nn.NewAdam(online, cfg.LearningRate),
		grads:  nn.NewGrads(online),
		replay: NewReplay(cfg.ReplayCap),
		rng:    rng,
	}, nil
}

// Epsilon returns the current exploration rate (linear anneal).
func (d *DDQN) Epsilon() float64 {
	f := float64(d.steps) / float64(d.cfg.EpsDecay)
	if f > 1 {
		f = 1
	}
	return d.cfg.EpsStart + f*(d.cfg.EpsEnd-d.cfg.EpsStart)
}

// QValues returns the online network's action values for state s.
func (d *DDQN) QValues(s mat.Vec) mat.Vec { return d.online.Forward(s) }

// Greedy returns argmax_a Q(s, a) under the online network.
func (d *DDQN) Greedy(s mat.Vec) int {
	q := d.online.Forward(s)
	best := 0
	for a := 1; a < len(q); a++ {
		if q[a] > q[best] {
			best = a
		}
	}
	return best
}

// Act returns an ε-greedy action for training.
func (d *DDQN) Act(s mat.Vec) int {
	if d.rng.Float64() < d.Epsilon() {
		return d.rng.Intn(d.cfg.NumActions)
	}
	return d.Greedy(s)
}

// Observe records a transition and performs a learning step when warmed up.
func (d *DDQN) Observe(tr Transition) {
	d.replay.Add(tr)
	d.steps++
	if d.replay.Len() >= d.cfg.WarmUp {
		d.trainStep()
	}
	if d.steps%d.cfg.TargetSync == 0 {
		d.target.CopyFrom(d.online)
	}
}

// trainStep samples a batch and applies one double-DQN TD update:
//
//	y = r + γ·Q_target(s', argmax_a Q_online(s', a))   (0 terminal)
//	L = mean (Q_online(s, a) − y)²,
//
// over a batch drawn uniformly from the replay buffer, as the paper's
// agent samples.
func (d *DDQN) trainStep() {
	batch := d.replay.Sample(d.cfg.BatchSize, d.rng)
	d.grads.Zero()
	loss := 0.0
	for _, tr := range batch {
		y := tr.R
		if !tr.Done {
			aStar := d.Greedy(tr.S2)
			y += d.cfg.Gamma * d.target.Forward(tr.S2)[aStar]
		}
		q := d.online.Forward(tr.S)
		diff := q[tr.A] - y
		loss += diff * diff
		gradOut := make(mat.Vec, len(q))
		gradOut[tr.A] = 2 * diff / float64(len(batch))
		d.online.Accumulate(d.grads, tr.S, gradOut)
	}
	d.opt.Step(d.online, d.grads)
	d.trainOps++
	loss /= float64(len(batch))
	if d.lossCount == 0 {
		d.lossEMA = loss
	} else {
		d.lossEMA = 0.99*d.lossEMA + 0.01*loss
	}
	d.lossCount++
}

// LossEMA returns an exponential moving average of the TD loss (0 before
// any training).
func (d *DDQN) LossEMA() float64 { return d.lossEMA }

// TrainOps returns how many gradient updates have been applied.
func (d *DDQN) TrainOps() int { return d.trainOps }

// Policy returns the trained greedy policy network (shared storage).
func (d *DDQN) Policy() *nn.MLP { return d.online }

// Env is a task for Train: an episodic environment over vector states and
// discrete actions.
type Env interface {
	// Reset starts a new episode and returns the initial agent state.
	Reset(rng *rand.Rand) (mat.Vec, error)
	// Step applies the action; it returns the successor state, the reward,
	// and whether the episode terminated.
	Step(action int) (next mat.Vec, reward float64, done bool, err error)
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Episodes      int
	TotalSteps    int
	MeanReward    float64   // mean per-episode total reward
	RewardHistory []float64 // per-episode totals
	FinalEpsilon  float64
	FinalLossEMA  float64
}

// Train runs episodes of ε-greedy interaction with env, learning online.
// maxSteps bounds each episode's length.
func Train(agent *DDQN, env Env, episodes, maxSteps int) (TrainStats, error) {
	stats := TrainStats{}
	rng := rand.New(rand.NewSource(agent.cfg.Seed + 7919))
	for ep := 0; ep < episodes; ep++ {
		s, err := env.Reset(rng)
		if err != nil {
			return stats, fmt.Errorf("rl: Train: reset episode %d: %w", ep, err)
		}
		total := 0.0
		for step := 0; step < maxSteps; step++ {
			a := agent.Act(s)
			s2, r, done, err := env.Step(a)
			if err != nil {
				return stats, fmt.Errorf("rl: Train: step %d of episode %d: %w", step, ep, err)
			}
			agent.Observe(Transition{S: s, A: a, R: r, S2: s2, Done: done})
			total += r
			s = s2
			stats.TotalSteps++
			if done {
				break
			}
		}
		stats.Episodes++
		stats.RewardHistory = append(stats.RewardHistory, total)
		stats.MeanReward += total
	}
	if stats.Episodes > 0 {
		stats.MeanReward /= float64(stats.Episodes)
	}
	stats.FinalEpsilon = agent.Epsilon()
	stats.FinalLossEMA = agent.LossEMA()
	return stats, nil
}
