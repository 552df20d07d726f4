package plant

import (
	"errors"
	"fmt"
	"math/rand"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/nn"
	"oic/internal/rl"
)

// Paper reward weights (Section IV): w₁ penalizes leaving X′, w₂ penalizes
// applied energy. They transfer across plants because the encoder below
// normalizes states and disturbances to O(1) ranges.
const (
	DefaultW1     = 0.01
	DefaultW2     = 0.0001
	DefaultMemory = 1
)

func (c TrainConfig) withDefaults(defaultSteps int) TrainConfig {
	if c.Episodes == 0 {
		c.Episodes = 200
	}
	if c.Steps == 0 {
		c.Steps = defaultSteps
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.W1 <= 0 {
		c.W1 = DefaultW1
	}
	if c.W2 <= 0 {
		c.W2 = DefaultW2
	}
	if c.Memory <= 0 {
		c.Memory = DefaultMemory
	}
	return c
}

// Encoder normalizes (state, recent disturbances) into the paper's agent
// state s(t) = {x(t), w(t−r+1), …, w(t)} with O(1) feature ranges: state
// coordinate i maps to (x_i − xCenter_i)/xScale_i, and the first
// len(wScale) channels of each window entry to w_i/wScale_i.
type Encoder struct {
	xCenter, xScale mat.Vec
	wScale          mat.Vec
}

// FixedEncoder returns an encoder over the given bounds: one center and
// one scale per state coordinate, and one scale per encoded disturbance
// channel.
func FixedEncoder(xCenter, xScale, wScale mat.Vec) *Encoder {
	return &Encoder{xCenter: xCenter, xScale: xScale, wScale: wScale}
}

// NewEncoder derives normalization from the bounding boxes of the
// instance's safe set X and disturbance set W.
func NewEncoder(inst *Instance) (*Encoder, error) {
	sys := inst.Sys
	if sys.X == nil || sys.W == nil {
		return nil, errors.New("plant: NewEncoder: system lacks X or W set")
	}
	lo, hi, err := sys.X.BoundingBox()
	if err != nil {
		return nil, fmt.Errorf("plant: NewEncoder: X bounding box: %w", err)
	}
	e := &Encoder{
		xCenter: make(mat.Vec, len(lo)),
		xScale:  make(mat.Vec, len(lo)),
	}
	for i := range lo {
		e.xCenter[i] = (lo[i] + hi[i]) / 2
		e.xScale[i] = (hi[i] - lo[i]) / 2
		if e.xScale[i] <= 0 {
			e.xScale[i] = 1
		}
	}
	wlo, whi, err := sys.W.BoundingBox()
	if err != nil {
		return nil, fmt.Errorf("plant: NewEncoder: W bounding box: %w", err)
	}
	e.wScale = make(mat.Vec, len(wlo))
	for i := range wlo {
		s := whi[i]
		if d := -wlo[i]; d > s {
			s = d
		}
		if s <= 0 {
			s = 1 // W pins this channel to zero: any unit keeps the feature at 0
		}
		e.wScale[i] = s
	}
	return e, nil
}

// encoderFor returns inst's fixed encoder, or one derived from its X and
// W sets.
func encoderFor(inst *Instance) (*Encoder, error) {
	if inst.Encoder != nil {
		return inst.Encoder, nil
	}
	return NewEncoder(inst)
}

// StateDim returns the encoded feature count for memory recent disturbances.
func (e *Encoder) StateDim(memory int) int { return len(e.xCenter) + memory*len(e.wScale) }

// Encode builds the normalized agent state (most recent disturbance last).
func (e *Encoder) Encode(x mat.Vec, wRecent []mat.Vec) mat.Vec {
	return e.EncodeInto(make(mat.Vec, e.StateDim(len(wRecent))), x, wRecent)
}

// EncodeInto is Encode without allocating: it writes the normalized agent
// state into the front of dst, which must hold StateDim(len(wRecent))
// entries, and returns that prefix.
func (e *Encoder) EncodeInto(dst, x mat.Vec, wRecent []mat.Vec) mat.Vec {
	dst = dst[:len(x)+len(wRecent)*len(e.wScale)]
	for i, xi := range x {
		dst[i] = (xi - e.xCenter[i]) / e.xScale[i]
	}
	k := len(x)
	for _, w := range wRecent {
		for i, ws := range e.wScale {
			dst[k] = w[i] / ws
			k++
		}
	}
	return dst
}

// Env adapts any plant instance to rl.Env with the paper's reward
//
//	R(s, z, s′) = −w₁·[x′ ∉ X′] − w₂·‖u‖₁,
//
// where u is the actually applied input (zero on a skip). The monitor
// enforces safety during training, so exploration can never leave XI.
type Env struct {
	inst   *Instance
	enc    *Encoder
	steps  int
	w1, w2 float64

	fw   *core.Framework
	sess *core.Session
	w    []mat.Vec
	t    int
}

// NewEnv builds a training environment over inst with episode length
// steps. Features use the instance's fixed encoder when it has one,
// bounds derived from X and W otherwise.
func NewEnv(inst *Instance, steps int, w1, w2 float64, memory int) (*Env, error) {
	enc, err := encoderFor(inst)
	if err != nil {
		return nil, err
	}
	// The framework policy is never consulted — the agent supplies choices
	// through StepWithChoice. BangBang is a placeholder.
	fw, err := inst.Framework(core.BangBang{}, memory)
	if err != nil {
		return nil, err
	}
	return &Env{inst: inst, enc: enc, steps: steps, w1: w1, w2: w2, fw: fw}, nil
}

// StateDim returns the agent state dimension.
func (e *Env) StateDim() int { return e.enc.StateDim(e.fw.WMemory) }

// Reset implements rl.Env.
func (e *Env) Reset(rng *rand.Rand) (mat.Vec, error) {
	x0s, err := e.inst.SampleInitialStates(1, rng)
	if err != nil {
		return nil, fmt.Errorf("plant: Env.Reset: sampling X′: %w", err)
	}
	if len(x0s) == 0 {
		return nil, errors.New("plant: Env.Reset: sampling X′: empty sample")
	}
	e.w = e.inst.Disturbances(rng, e.steps)
	sess, err := e.fw.NewSession(x0s[0])
	if err != nil {
		return nil, err
	}
	e.sess = sess
	e.t = 0
	return e.enc.Encode(x0s[0], sess.RecentWView()), nil
}

// Step implements rl.Env.
func (e *Env) Step(action int) (mat.Vec, float64, bool, error) {
	if e.sess == nil {
		return nil, 0, true, errors.New("plant: Env.Step: call Reset first")
	}
	if e.t >= e.steps {
		return nil, 0, true, errors.New("plant: Env.Step: episode exhausted")
	}
	st, err := e.sess.StepWithChoice(e.w[e.t], action == 1)
	if err != nil {
		return nil, 0, true, err
	}
	e.t++

	r1 := 0.0
	if !e.fw.Sets.XPrime.Contains(st.X, 1e-9) {
		r1 = 1
	}
	reward := -e.w1*r1 - e.w2*st.U.Norm1()

	done := e.t >= e.steps
	return e.enc.Encode(st.X, e.sess.RecentWView()), reward, done, nil
}

// TrainDRL trains the paper's double-DQN skipping agent for inst, with
// the Section IV hyper-parameters, for any plant. defaultSteps is the
// episode length used when cfg.Steps is 0 (the plant's EpisodeSteps).
func TrainDRL(inst *Instance, cfg TrainConfig, defaultSteps int) (core.SkipPolicy, rl.TrainStats, error) {
	cfg = cfg.withDefaults(defaultSteps)
	env, err := NewEnv(inst, cfg.Steps, cfg.W1, cfg.W2, cfg.Memory)
	if err != nil {
		return nil, rl.TrainStats{}, err
	}
	totalSteps := cfg.Episodes * cfg.Steps
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
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, rl.TrainStats{}, err
	}
	stats, err := rl.Train(agent, env, cfg.Episodes, cfg.Steps)
	if err != nil {
		return nil, stats, fmt.Errorf("plant: TrainDRL: %w", err)
	}
	return newTrainedPolicy(agent.Policy(), env.enc, cfg.Memory), stats, nil
}

// trainedPolicy is a trained DRL skipping policy: the greedy argmax over
// the online Q-network on the encoder's normalized agent state. It holds
// the network and encoder directly (rather than a closure over the agent)
// so the policy can be snapshotted into an artifact and restored
// bit-identically — the restored Decide runs the exact same float64
// pipeline as the freshly trained one. Decide runs the network's frozen
// form, built once, which skips the zeros the ReLUs leave and computes
// the network's own outputs bit for bit. It also carries the
// disturbance-memory length the encoder expects, so episode runners size
// the session window to match (MemoryPolicy).
type trainedPolicy struct {
	net    *nn.MLP
	frozen *nn.Frozen
	enc    *Encoder
	memory int
}

func newTrainedPolicy(net *nn.MLP, enc *Encoder, memory int) trainedPolicy {
	return trainedPolicy{net: net, frozen: net.Freeze(), enc: enc, memory: memory}
}

// decideScratch and decideKeep size the stack scratch of
// trainedPolicy.Decide: the encoded state plus the frozen pass's two
// buffers, in float64s, and its keep list, in int32s. They fit every net
// TrainDRL builds (widest layer 64) with 32 features; a wider net or a
// longer state falls back to the heap. Go zeroes the arrays on every
// call, so they are no larger than those nets need.
const (
	decideScratch = 2*64 + 32
	decideKeep    = 64
)

// Decide implements core.SkipPolicy: greedy action 1 ("run κ") iff
// Q(s, run) > Q(s, skip), matching rl.DDQN.Greedy's strict argmax. It
// runs in stack scratch, so the shared policy carries no mutable state
// and fleet workers call it concurrently.
func (p trainedPolicy) Decide(_ int, x mat.Vec, wRecent []mat.Vec) bool {
	var stack [decideScratch]float64
	var keepStack [decideKeep]int32
	buf, keep := stack[:], keepStack[:]
	n := p.enc.StateDim(len(wRecent))
	floats, inputs := p.frozen.ScratchLen()
	if need := n + floats; need > len(buf) {
		buf = make([]float64, need)
	}
	if inputs > len(keep) {
		keep = make([]int32, inputs)
	}
	q := p.frozen.ForwardInto(p.enc.EncodeInto(buf[:n], x, wRecent), buf[n:], keep)
	return q[1] > q[0]
}

// Name implements core.SkipPolicy.
func (p trainedPolicy) Name() string { return DRLPolicyLabel }

// PolicyMemory implements MemoryPolicy.
func (p trainedPolicy) PolicyMemory() int { return p.memory }

// PolicySnapshot implements SnapshottablePolicy.
func (p trainedPolicy) PolicySnapshot() (*PolicySnapshot, error) {
	return &PolicySnapshot{
		Label:   DRLPolicyLabel,
		Memory:  p.memory,
		Net:     p.net.Snapshot(),
		XCenter: append([]float64(nil), p.enc.xCenter...),
		XScale:  append([]float64(nil), p.enc.xScale...),
		WScale:  append([]float64(nil), p.enc.wScale...),
	}, nil
}
