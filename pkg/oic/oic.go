// Package oic is the public, stable facade over the opportunistic
// intermittent-control runtime (the paper's Algorithm 1 + Theorem 1): it
// turns the internal framework into a session-oriented service API that
// external programs — and this repository's own experiment pipeline and
// oicd server — build on.
//
// The two central types split the cost model cleanly:
//
//   - Engine is built once per (plant, scenario, policy) and owns every
//     expensive compiled artifact: the nested safety sets X′ ⊆ XI ⊆ X, the
//     controller's compiled parametric horizon LP, and the trained skip
//     policy. Engines are immutable after construction and safe for
//     concurrent use.
//   - Session is a cheap, poolable handle for one closed-loop run. Closing
//     a session returns its solver workspace (the tableau, the warm-start
//     buffers, the disturbance ring) to the engine's sync.Pool; the next
//     NewSession reuses it after a cold reset, so a pooled session's
//     trajectory is byte-identical to a freshly created one's.
//
// Errors are sentinel-based (errors.Is): ErrInfeasible, ErrUnsafe,
// ErrSessionClosed, ErrUnknownPlant, ErrUnknownScenario, ErrUnknownPolicy,
// ErrBadDimension. All request/response types marshal to JSON and are the
// wire schema of the oicd HTTP server, so the in-process and server paths
// speak the same language.
package oic

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/plant"
	"oic/internal/reach"
	"oic/internal/rl"
)

// Built-in skip policies, valid as Config.Policy and as the policy
// argument of Engine.RunEpisode.
const (
	// PolicyAlwaysRun runs κ at every step: the traditional baseline.
	PolicyAlwaysRun = "always-run"
	// PolicyBangBang skips whenever the monitor permits (Eq. 7). The
	// default: safe, free, and requires no training.
	PolicyBangBang = "bang-bang"
	// PolicyDRL is the plant's learned skipping policy, trained at engine
	// construction with Config.Train.
	PolicyDRL = "drl"
)

// TrainConfig tunes PolicyDRL training. The zero value uses the plant's
// paper defaults.
type TrainConfig struct {
	Episodes int   `json:"episodes,omitempty"`
	Steps    int   `json:"steps,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
}

// Config selects and parameterizes an Engine.
type Config struct {
	// Plant is the registered case-study name (see Plants).
	Plant string `json:"plant"`
	// Scenario is the plant scenario ID; empty means the headline scenario.
	Scenario string `json:"scenario,omitempty"`
	// Policy is the skipping policy Ω: PolicyAlwaysRun, PolicyBangBang
	// (default), or PolicyDRL.
	Policy string `json:"policy,omitempty"`
	// Memory is the disturbance-window length r the policy observes;
	// 0 means the policy's own requirement (the paper's r = 1 otherwise).
	Memory int `json:"memory,omitempty"`
	// Train configures PolicyDRL training; ignored for other policies.
	Train TrainConfig `json:"train,omitempty"`
}

// Engine owns the compiled artifacts of one (plant, scenario, policy)
// binding and hands out pooled Sessions over them. Safe for concurrent use.
type Engine struct {
	cfg      Config
	plant    plant.Plant
	scenario plant.Scenario
	inst     plant.Instance
	policy   core.SkipPolicy
	train    rl.TrainStats
	memory   int
	fw       *core.Framework
	zeroW    []float64 // shared zero disturbance, never written

	pool sync.Pool // recycled *core.Session workspaces

	// Skip-budget oracle over the S_k chain, built lazily on first use
	// (NewFleet, SkipBudget): most engines never pay for it.
	sbOnce sync.Once
	sb     *reach.SkipBudget
	sbErr  error
}

// maxSkipChain is the S_k chain depth the engine's skip-budget oracle
// precomputes: budgets larger than this report as maxSkipChain. Eight
// covers every scheduling decision the fleet makes (priority ordering and
// shed headroom saturate well before that).
const maxSkipChain = 8

// NewEngine resolves the plant and scenario from the registry, compiles
// the scenario's safety sets and controller program, and (for PolicyDRL)
// trains the skipping policy. This is the expensive call — amortize it by
// reusing the engine across sessions, as oicd's per-plant engine cache
// does.
func NewEngine(cfg Config) (*Engine, error) {
	p, err := plant.Get(cfg.Plant)
	if err != nil {
		return nil, err
	}
	sc := p.Headline()
	if cfg.Scenario != "" {
		if sc, err = plant.FindScenario(p, cfg.Scenario); err != nil {
			return nil, err
		}
	}
	inst, err := p.Instantiate(sc)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, plant: p, scenario: sc, inst: inst}

	if cfg.Policy == "" {
		cfg.Policy = PolicyBangBang
		e.cfg.Policy = PolicyBangBang
	}
	switch cfg.Policy {
	case PolicyAlwaysRun:
		e.policy = core.AlwaysRun{}
	case PolicyBangBang:
		e.policy = core.BangBang{}
	case PolicyDRL:
		pol, stats, err := inst.TrainSkipPolicy(plant.TrainConfig{
			Episodes: cfg.Train.Episodes, Steps: cfg.Train.Steps, Seed: cfg.Train.Seed,
			Memory: cfg.Memory, // train with the window the sessions will use
		})
		if err != nil {
			return nil, fmt.Errorf("oic: training %s policy: %w", cfg.Plant, err)
		}
		e.policy, e.train = pol, stats
	default:
		return nil, fmt.Errorf("%w: %q (built in: %s, %s, %s)",
			ErrUnknownPolicy, cfg.Policy, PolicyAlwaysRun, PolicyBangBang, PolicyDRL)
	}

	e.memory = cfg.Memory
	if e.memory <= 0 {
		e.memory = plant.PolicyMemory(e.policy)
	} else if mp, ok := e.policy.(plant.MemoryPolicy); ok && mp.PolicyMemory() > 0 && mp.PolicyMemory() != e.memory {
		// A memory-sensitive policy's feature encoder is sized for the
		// window it was trained with; overriding it would corrupt the
		// feature vector (and silently diverge from the episode path).
		return nil, fmt.Errorf("%w: config memory %d conflicts with the policy's trained window %d",
			ErrBadDimension, e.memory, mp.PolicyMemory())
	}
	fw, err := inst.Framework(e.policy, e.memory)
	if err != nil {
		return nil, err
	}
	e.fw = fw
	e.zeroW = make([]float64, inst.System().NX())
	return e, nil
}

// Config returns the configuration the engine was built with (policy
// defaulting applied).
func (e *Engine) Config() Config { return e.cfg }

// PlantName returns the engine's plant registry name.
func (e *Engine) PlantName() string { return e.plant.Name() }

// ScenarioID returns the resolved scenario ID (the headline's when the
// config left it empty).
func (e *Engine) ScenarioID() string { return e.scenario.ID }

// PolicyName returns the skipping policy's name.
func (e *Engine) PolicyName() string { return e.cfg.Policy }

// TrainStats returns the PolicyDRL training statistics (zero value for
// untrained policies).
func (e *Engine) TrainStats() rl.TrainStats { return e.train }

// EpisodeSteps returns the plant's default episode length.
func (e *Engine) EpisodeSteps() int { return e.plant.EpisodeSteps() }

// NX and NU return the plant's state and input dimensions.
func (e *Engine) NX() int { return e.inst.System().NX() }

// NU returns the plant's input dimension.
func (e *Engine) NU() int { return e.inst.System().NU() }

// System returns the engine's affine LTI model (in-module escape hatch for
// the experiment pipeline; external clients use the wire API).
func (e *Engine) System() *lti.System { return e.inst.System() }

// SafetySets returns the compiled nested safety sets X′ ⊆ XI ⊆ X
// (in-module escape hatch, shared — do not mutate).
func (e *Engine) SafetySets() core.SafetySets { return e.inst.Sets() }

// SampleInitialStates draws n states from the strengthened safe set X′
// with a deterministic seed — every returned state is a valid NewSession
// start.
func (e *Engine) SampleInitialStates(seed int64, n int) ([][]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	xs, err := e.inst.SampleInitialStates(n, rng)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out, nil
}

// DrawCase deterministically generates one evaluation case of a seeded
// experiment: an initial state sampled from X′ followed by a steps-long
// disturbance trace from the scenario's exogenous process, drawn from a
// single seeded stream in that order. It is the exact case-generation
// recipe of the paper pipeline (internal/exp), exposed so clients can
// replay its episodes bit-for-bit.
func (e *Engine) DrawCase(seed int64, steps int) (x0 []float64, w [][]float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	x0s, err := e.inst.SampleInitialStates(1, rng)
	if err != nil {
		return nil, nil, fmt.Errorf("oic: DrawCase: sampling initial state: %w", err)
	}
	if len(x0s) == 0 {
		return nil, nil, fmt.Errorf("oic: DrawCase: sampling initial state: empty sample")
	}
	ws := e.inst.Disturbances(rng, steps)
	w = make([][]float64, len(ws))
	for i, wi := range ws {
		w[i] = wi
	}
	return x0s[0], w, nil
}

// EpisodeReport is the wire form of one completed closed-loop episode.
type EpisodeReport struct {
	Policy     string  `json:"policy"`
	Steps      int     `json:"steps"`
	Cost       float64 `json:"cost"`   // plant resource metric (fuel, kWh, Δv)
	Energy     float64 `json:"energy"` // Σ‖u‖₁ — Problem 1's objective
	Skips      int     `json:"skips"`
	Runs       int     `json:"runs"`
	Forced     int     `json:"forced"`
	Violations int     `json:"violations"` // states outside X (Theorem 1: 0)

	ControllerCalls int           `json:"controller_calls"`
	CtrlTime        time.Duration `json:"ctrl_time_ns"`
	OverheadTime    time.Duration `json:"overhead_time_ns"`
}

// RunEpisode executes Algorithm 1 from x0 over the disturbance trace w
// under the named policy — one of the built-ins, PolicyDRL for the
// engine's trained policy, or "" for the engine's configured policy — and
// meters the plant cost. It delegates to the plant's episode runner, so
// results are identical to the pre-facade experiment pipeline's.
func (e *Engine) RunEpisode(policy string, x0 []float64, w [][]float64) (*EpisodeReport, error) {
	pol, err := e.resolvePolicy(policy)
	if err != nil {
		return nil, err
	}
	if len(x0) != e.NX() {
		return nil, fmt.Errorf("%w: x0 has dim %d, want %d", ErrBadDimension, len(x0), e.NX())
	}
	ws := make([]mat.Vec, len(w))
	for i, wi := range w {
		if len(wi) != e.NX() {
			return nil, fmt.Errorf("%w: w[%d] has dim %d, want %d", ErrBadDimension, i, len(wi), e.NX())
		}
		ws[i] = wi
	}
	ep, err := e.inst.RunEpisode(pol, mat.Vec(x0), ws)
	if err != nil {
		return nil, err
	}
	r := ep.Result
	return &EpisodeReport{
		Policy: pol.Name(), Steps: r.Skips + r.Runs,
		Cost: ep.Cost, Energy: ep.Energy,
		Skips: r.Skips, Runs: r.Runs, Forced: r.Forced,
		Violations:      r.ViolationsX,
		ControllerCalls: r.ControllerCalls,
		CtrlTime:        r.CtrlTime, OverheadTime: r.OverheadTime,
	}, nil
}

// resolvePolicy maps a wire policy name to a SkipPolicy, reusing the
// engine's trained policy for PolicyDRL.
func (e *Engine) resolvePolicy(name string) (core.SkipPolicy, error) {
	switch name {
	case "":
		return e.policy, nil
	case PolicyAlwaysRun:
		return core.AlwaysRun{}, nil
	case PolicyBangBang:
		return core.BangBang{}, nil
	case PolicyDRL:
		if e.cfg.Policy != PolicyDRL {
			return nil, fmt.Errorf("%w: engine was built with policy %q, not %q",
				ErrUnknownPolicy, e.cfg.Policy, PolicyDRL)
		}
		return e.policy, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownPolicy, name)
}

// skipBudgetOracle lazily builds the engine's S_k-chain oracle (shared,
// immutable, concurrent-safe).
func (e *Engine) skipBudgetOracle() (*reach.SkipBudget, error) {
	e.sbOnce.Do(func() {
		e.sb, e.sbErr = reach.NewSkipBudget(e.inst.Sets().XI, e.inst.System(), maxSkipChain)
		if e.sbErr != nil {
			e.sbErr = fmt.Errorf("oic: computing skip-budget chain: %w", e.sbErr)
		}
	})
	return e.sb, e.sbErr
}

// SkipBudget returns the remaining consecutive-skip budget of x: the
// largest k ≤ MaxSkipBudget with x ∈ S_k, i.e. how many consecutive
// zero-input control periods the state is certified to absorb while
// staying inside XI under every admissible disturbance. 0 means x ∉ X′ —
// the monitor would force κ at the next step. The S_k chain is compiled on
// first call and cached on the engine.
func (e *Engine) SkipBudget(x []float64) (int, error) {
	if len(x) != e.NX() {
		return 0, fmt.Errorf("%w: x has dim %d, want %d", ErrBadDimension, len(x), e.NX())
	}
	sb, err := e.skipBudgetOracle()
	if err != nil {
		return 0, err
	}
	return sb.Remaining(mat.Vec(x)), nil
}

// MaxSkipBudget returns the depth of the engine's compiled S_k chain — the
// largest budget SkipBudget ever reports.
func (e *Engine) MaxSkipBudget() (int, error) {
	sb, err := e.skipBudgetOracle()
	if err != nil {
		return 0, err
	}
	return sb.Max(), nil
}

// acquireCore hands out a core session at x0: a pooled workspace reset
// to cold when one is available, a fresh one otherwise. Shared by
// NewSession and Fleet.Admit.
func (e *Engine) acquireCore(x0 []float64) (*core.Session, error) {
	if len(x0) != e.NX() {
		return nil, fmt.Errorf("%w: x0 has dim %d, want %d", ErrBadDimension, len(x0), e.NX())
	}
	var cs *core.Session
	if v := e.pool.Get(); v != nil {
		cs = v.(*core.Session)
		if err := cs.Reset(mat.Vec(x0)); err != nil {
			e.pool.Put(cs) // the workspace is fine; only x0 was rejected
			return nil, err
		}
	} else {
		var err error
		cs, err = e.fw.NewSession(mat.Vec(x0))
		if err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// releaseCore terminates a core session and recycles its workspace.
func (e *Engine) releaseCore(cs *core.Session) {
	cs.Close()
	e.pool.Put(cs)
}

// Level classifies a state against the engine's nested safety sets,
// returning the monitor's wire label ("X'", "XI", "X", "unsafe"), or
// ErrBadDimension for a wrong-length state.
func (e *Engine) Level(x []float64) (string, error) {
	if len(x) != e.NX() {
		return "", fmt.Errorf("%w: x has dim %d, want %d", ErrBadDimension, len(x), e.NX())
	}
	return e.fw.Monitor().Level(mat.Vec(x)).String(), nil
}

// Plants lists every registered plant with its scenario catalogue — the
// payload of oicd's GET /v1/plants.
func Plants() []PlantInfo {
	names := plant.Names()
	out := make([]PlantInfo, 0, len(names))
	for _, name := range names {
		p, err := plant.Get(name)
		if err != nil {
			continue
		}
		info := PlantInfo{
			Name:         p.Name(),
			Description:  p.Description(),
			CostLabel:    p.CostLabel(),
			EpisodeSteps: p.EpisodeSteps(),
			Headline:     scenarioInfo(p.Headline()),
		}
		for _, l := range p.Ladders() {
			li := LadderInfo{Name: l.Name, Title: l.Title}
			for _, sc := range l.Scenarios {
				li.Scenarios = append(li.Scenarios, scenarioInfo(sc))
			}
			info.Ladders = append(info.Ladders, li)
		}
		out = append(out, info)
	}
	return out
}

func scenarioInfo(sc plant.Scenario) ScenarioInfo {
	return ScenarioInfo{ID: sc.ID, Description: sc.Description, Detail: sc.Detail}
}
