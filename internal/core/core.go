// Package core implements the paper's primary contribution: the online
// opportunistic intermittent-control framework (Algorithm 1).
//
// The framework wraps an existing safe controller κ. At every control step
// it monitors the measured state against the strengthened safe set X′:
//
//   - x(t) ∈ X′ — safety is guaranteed for either choice, so a pluggable
//     skipping policy Ω (bang-bang, model-based MIP, or DRL) freely decides
//     whether to run κ (z = 1) or to skip computation and actuation
//     entirely (z = 0, zero input);
//   - x(t) ∉ X′ — the monitor forces z = 1 and κ is applied.
//
// Theorem 1 of the paper: with X′ = B(XI, 0) ∩ XI built from the robust
// control invariant set XI of κ, the closed loop never leaves XI — for any
// policy Ω. The property test in core_test.go exercises exactly this with
// adversarial random policies.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"oic/internal/controller"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/poly"
	"oic/internal/reach"
)

// Sentinel errors of the runtime, all errors.Is-able through wrapping.
var (
	// ErrUnsafe reports a state outside the safe set required for the
	// requested operation — e.g. an initial state outside XI, where
	// Algorithm 1's precondition (line 2) does not hold.
	ErrUnsafe = errors.New("core: state outside safe set")

	// ErrSessionClosed is returned by Session.Step after the session was
	// closed, either explicitly (Close) or by a terminal failure (a κ
	// error). A closed session's state and counters remain readable; only
	// stepping is refused, so reuse after failure is well-defined instead
	// of undefined behavior.
	ErrSessionClosed = errors.New("core: session closed")
)

// SafetySets bundles the three nested sets of the paper (Fig. 1):
// X′ ⊆ XI ⊆ X.
type SafetySets struct {
	X      *poly.Polytope // original safe set
	XI     *poly.Polytope // robust control invariant set of κ
	XPrime *poly.Polytope // strengthened safe set B(XI,0) ∩ XI
}

// ComputeSafetySets derives X′ from a given robust control invariant set XI
// (obtained from RMPC.FeasibleSet via Proposition 1, reach.MaximalRCI, or
// reach.MRPI) and validates the nesting X′ ⊆ XI ⊆ X.
func ComputeSafetySets(sys *lti.System, xi *poly.Polytope) (SafetySets, error) {
	if sys.X == nil {
		return SafetySets{}, errors.New("core: ComputeSafetySets: system has no safe set X")
	}
	if ok, err := sys.X.Covers(xi, 1e-6); err != nil || !ok {
		return SafetySets{}, fmt.Errorf("core: ComputeSafetySets: XI ⊄ X (ok=%v err=%v)", ok, err)
	}
	xprime, err := reach.StrengthenedSafeSet(xi, sys)
	if err != nil {
		return SafetySets{}, err
	}
	if xprime.IsEmpty() {
		return SafetySets{}, errors.New("core: ComputeSafetySets: strengthened safe set is empty; skipping is never admissible")
	}
	return SafetySets{X: sys.X, XI: xi, XPrime: xprime}, nil
}

// Level classifies a state against the nested safety sets. A byte wide,
// it is also the level code traces, journals and wire JSON carry.
type Level uint8

// Membership levels, from most to least permissive.
const (
	InXPrime Level = iota // skipping is admissible
	InXI                  // controllable: κ must run
	InX                   // safe now, but not guaranteed controllable
	Unsafe                // outside the original safe set
)

func (l Level) String() string {
	switch l {
	case InXPrime:
		return "X'"
	case InXI:
		return "XI"
	case InX:
		return "X"
	case Unsafe:
		return "unsafe"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Monitor performs the runtime membership checks of Algorithm 1 (line 4–9).
type Monitor struct {
	Sets SafetySets
	Tol  float64 // membership tolerance, default 1e-9
}

// NewMonitor returns a monitor over the given sets.
func NewMonitor(sets SafetySets) *Monitor { return &Monitor{Sets: sets, Tol: 1e-9} }

// Level returns the tightest set containing x.
func (m *Monitor) Level(x mat.Vec) Level {
	switch {
	case m.Sets.XPrime.Contains(x, m.Tol):
		return InXPrime
	case m.Sets.XI.Contains(x, m.Tol):
		return InXI
	case m.Sets.X.Contains(x, m.Tol):
		return InX
	default:
		return Unsafe
	}
}

// SkipPolicy is the decision function Ω: given the time step, the state,
// and the recent observed disturbances (most recent last), it returns true
// to run the controller (z = 1) or false to skip (z = 0). It is consulted
// only when the monitor has established x ∈ X′.
type SkipPolicy interface {
	Decide(t int, x mat.Vec, wRecent []mat.Vec) bool
	Name() string
}

// AlwaysRun runs κ at every step: the traditional baseline ("RMPC only" in
// the paper's experiments).
type AlwaysRun struct{}

// Decide implements SkipPolicy.
func (AlwaysRun) Decide(int, mat.Vec, []mat.Vec) bool { return true }

// Name implements SkipPolicy.
func (AlwaysRun) Name() string { return "always-run" }

// BangBang skips whenever the monitor permits it (Eq. 7): zero input inside
// X′, κ otherwise. The monitor supplies the "otherwise" branch, so the
// policy itself never requests κ.
type BangBang struct{}

// Decide implements SkipPolicy.
func (BangBang) Decide(int, mat.Vec, []mat.Vec) bool { return false }

// Name implements SkipPolicy.
func (BangBang) Name() string { return "bang-bang" }

// PolicyFunc adapts a plain function (e.g. a trained DQN's greedy action)
// into a SkipPolicy.
type PolicyFunc struct {
	Fn    func(t int, x mat.Vec, wRecent []mat.Vec) bool
	Label string
}

// Decide implements SkipPolicy.
func (p PolicyFunc) Decide(t int, x mat.Vec, w []mat.Vec) bool { return p.Fn(t, x, w) }

// Name implements SkipPolicy.
func (p PolicyFunc) Name() string { return p.Label }

// Step is one executed iteration of Algorithm 1 — the runtime's one step
// value. The trace recorder, the step hooks, the write-ahead journal, the
// router shadow, the auditor and replay-to-head recovery all take it as
// is. X is the successor state: the pre-step state is the previous step's
// X (or the initial state), so states are carried once. A Step returned
// by Session.Step holds views — W is the caller's disturbance, U the
// applied input, X the session's state buffer — valid until the next step
// and never to be mutated; callers that keep a run record it
// (trace.Recorder copies).
type Step struct {
	Ran    bool    `json:"ran"`              // effective z(t): κ computed and applied
	Forced bool    `json:"forced,omitempty"` // monitor overrode the policy (x ∉ X′)
	Level  Level   `json:"level"`            // monitor classification of the pre-step state
	W      mat.Vec `json:"w"`                // realized disturbance
	U      mat.Vec `json:"u"`                // applied input (zeros when skipped)
	X      mat.Vec `json:"x"`                // successor state
}

// Result aggregates a framework run.
type Result struct {
	Energy          float64 // Σ‖u(t)‖₁ (Problem 1's objective)
	Skips           int     // steps with z = 0
	Runs            int     // steps with z = 1
	Forced          int     // runs forced by the monitor
	Degraded        int     // optional κ failures downgraded to safe skips
	ViolationsX     int     // states outside X (Theorem 1: must be 0)
	ViolationsXI    int     // states outside XI (Theorem 1: must be 0)
	ControllerCalls int

	CtrlTime     time.Duration // wall time inside κ.Compute
	OverheadTime time.Duration // wall time inside monitor + policy
}

// SkipRate returns the fraction of steps that skipped the controller.
func (r *Result) SkipRate() float64 {
	n := r.Skips + r.Runs
	if n == 0 {
		return 0
	}
	return float64(r.Skips) / float64(n)
}

// Framework is the online opportunistic intermittent-control loop.
type Framework struct {
	Sys     *lti.System
	Kappa   controller.Controller
	Sets    SafetySets
	Policy  SkipPolicy
	WMemory int // r: how many recent disturbances the policy sees (≥ 0)

	monitor *Monitor
}

// NewFramework validates and assembles the framework. WMemory defaults to 1
// (the paper's r = 1).
func NewFramework(sys *lti.System, kappa controller.Controller, sets SafetySets, policy SkipPolicy, wMemory int) (*Framework, error) {
	if sys == nil || kappa == nil || policy == nil {
		return nil, errors.New("core: NewFramework: nil component")
	}
	if sets.X == nil || sets.XI == nil || sets.XPrime == nil {
		return nil, errors.New("core: NewFramework: incomplete safety sets")
	}
	if wMemory < 0 {
		return nil, errors.New("core: NewFramework: negative disturbance memory")
	}
	if wMemory == 0 {
		wMemory = 1
	}
	return &Framework{
		Sys: sys, Kappa: kappa, Sets: sets, Policy: policy, WMemory: wMemory,
		monitor: NewMonitor(sets),
	}, nil
}

// Monitor exposes the framework's runtime monitor.
func (f *Framework) Monitor() *Monitor { return f.monitor }

// Session is an in-flight run of Algorithm 1 that external simulators can
// drive step by step (the traffic simulator and the DRL trainer both do).
//
// Each session runs against its own controller handle: when the framework
// controller implements controller.SessionController (the RMPC does), the
// session forks a per-session workspace at creation, so concurrent
// sessions over one shared framework never race and every session's solve
// chain (cold first run, warm afterwards) depends only on its own steps.
type Session struct {
	f       *Framework
	kappa   controller.Controller
	x       mat.Vec // current state (owned buffer)
	xNext   mat.Vec // successor scratch, swapped with x each step
	zeroU   mat.Vec // the skip input; never written
	t       int
	wHist   []mat.Vec // ring of owned buffers, most recent last
	level   Level     // the monitor's verdict on x, valid while leveled
	leveled bool      // cleared by every write of x
	degrade bool
	closed  bool
	Result  *Result
}

// NewSession starts a run at x0, which must lie inside XI (Algorithm 1,
// line 2).
func (f *Framework) NewSession(x0 mat.Vec) (*Session, error) {
	if len(x0) != f.Sys.NX() {
		return nil, fmt.Errorf("core: NewSession: initial state has dim %d, want %d", len(x0), f.Sys.NX())
	}
	if !f.Sets.XI.Contains(x0, 1e-9) {
		return nil, fmt.Errorf("core: NewSession: initial state %v outside XI: %w", x0, ErrUnsafe)
	}
	kappa := f.Kappa
	if sc, ok := kappa.(controller.SessionController); ok {
		kappa = sc.ForSession()
	}
	wh := make([]mat.Vec, f.WMemory)
	for i := range wh {
		wh[i] = make(mat.Vec, f.Sys.NX())
	}
	return &Session{
		f:      f,
		kappa:  kappa,
		x:      x0.Clone(),
		xNext:  make(mat.Vec, f.Sys.NX()),
		zeroU:  make(mat.Vec, f.Sys.NU()),
		wHist:  wh,
		Result: &Result{},
	}, nil
}

// SetDegrade toggles degraded mode (off by default). With it on, a κ
// failure on an *optional* compute — the policy wanted κ but the monitor
// did not mandate it, so x ∈ X′ — downgrades the step to the
// guaranteed-safe zero-input skip (Theorem 1 covers it) and counts in
// Result.Degraded, instead of terminally closing the session. A failure
// on a monitor-forced compute stays terminal: there the zero input has
// no safety certificate, so surviving it would trade away exactly the
// guarantee the framework exists to keep.
func (s *Session) SetDegrade(on bool) { s.degrade = on }

// State returns an owned snapshot of the current state.
func (s *Session) State() mat.Vec { return s.x.Clone() }

// StateView returns the current state as a view into the session's own
// buffer: valid only until the next Step or Reset, and never to be
// mutated. It is the allocation-free read the serving hot path uses;
// callers that retain the value take State instead.
func (s *Session) StateView() mat.Vec { return s.x }

// Level returns the monitor's classification of the current state. It is
// computed at most once per state: every write of the state (a step, a
// Reset) drops it, so it is always Monitor().Level(StateView()). It
// stores the verdict, so calls must be serialized with each other and
// with Step and Reset, as a session's steps already are.
func (s *Session) Level() Level {
	if !s.leveled {
		s.level = s.f.monitor.Level(s.x)
		s.leveled = true
	}
	return s.level
}

// Time returns the number of completed steps.
func (s *Session) Time() int { return s.t }

// Closed reports whether the session has terminated (explicit Close or a
// terminal κ failure); further Steps return ErrSessionClosed.
func (s *Session) Closed() bool { return s.closed }

// Close marks the session terminated. State and counters remain
// readable; stepping afterwards returns ErrSessionClosed. Close is
// idempotent.
func (s *Session) Close() { s.closed = true }

// RecentW returns an owned snapshot of the last WMemory observed
// disturbances, most recent last.
func (s *Session) RecentW() []mat.Vec {
	out := make([]mat.Vec, len(s.wHist))
	for i, w := range s.wHist {
		out[i] = w.Clone()
	}
	return out
}

// RecentWView returns the disturbance window (most recent last) as a view
// into the session's ring buffers: valid only until the next Step or
// Reset, never to be mutated. The DRL feature encoders and the serving
// path read it without allocating; callers that retain it take RecentW.
func (s *Session) RecentWView() []mat.Vec { return s.wHist }

// Reset rebinds the session to a fresh run from x0, reusing every buffer
// and the per-session controller workspace. A workspace that supports it
// (controller.SessionResetter — the RMPC does) is returned to its cold
// state, so a pooled session's solve chain is byte-identical to a newly
// created session's; otherwise a fresh workspace is forked. The previous
// Result is abandoned to its holders.
func (s *Session) Reset(x0 mat.Vec) error {
	f := s.f
	if len(x0) != f.Sys.NX() {
		return fmt.Errorf("core: Session.Reset: initial state has dim %d, want %d", len(x0), f.Sys.NX())
	}
	if !f.Sets.XI.Contains(x0, 1e-9) {
		return fmt.Errorf("core: Session.Reset: initial state %v outside XI: %w", x0, ErrUnsafe)
	}
	if rc, ok := s.kappa.(controller.SessionResetter); ok {
		rc.ResetSession()
	} else if sc, ok := f.Kappa.(controller.SessionController); ok {
		s.kappa = sc.ForSession()
	}
	copy(s.x, x0)
	s.leveled = false
	for _, w := range s.wHist {
		for i := range w {
			w[i] = 0
		}
	}
	s.t = 0
	s.degrade = false
	s.closed = false
	s.Result = &Result{}
	return nil
}

// Step executes one iteration of Algorithm 1 under the session policy,
// realizing the disturbance w, and returns the executed step. Only the
// aggregate Result counters are kept; the skip path allocates nothing.
func (s *Session) Step(w mat.Vec) (Step, error) {
	return s.step(w, nil)
}

// StepContext is Step with cooperative cancellation: a canceled context is
// checked before any work and its error returned verbatim, so servers can
// thread request contexts through long stepping loops.
func (s *Session) StepContext(ctx context.Context, w mat.Vec) (Step, error) {
	if err := ctx.Err(); err != nil {
		return Step{}, err
	}
	return s.step(w, nil)
}

// StepWithChoice executes one iteration with an externally supplied
// skipping choice (used by the DRL trainer during exploration). The monitor
// still overrides the choice whenever x ∉ X′, so training can never break
// safety.
func (s *Session) StepWithChoice(w mat.Vec, run bool) (Step, error) {
	return s.step(w, &run)
}

func (s *Session) step(w mat.Vec, choice *bool) (Step, error) {
	if s.closed {
		return Step{}, ErrSessionClosed
	}
	f := s.f
	res := s.Result

	tMon := time.Now()
	// The step classifies the state it steps (Theorem 1's backstop),
	// reusing a verdict already taken on this state, e.g. by a fleet's
	// decide phase.
	level := s.Level()
	var run, forced bool
	if level == InXPrime {
		if choice != nil {
			run = *choice
		} else {
			run = f.Policy.Decide(s.t, s.x, s.wHist)
		}
	} else {
		run, forced = true, true // Algorithm 1, line 9
	}
	res.OverheadTime += time.Since(tMon)

	u := s.zeroU // the skip path applies zero input and allocates nothing
	if run {
		tCtl := time.Now()
		uc, err := s.kappa.Compute(s.x)
		res.CtrlTime += time.Since(tCtl)
		if err == nil && !allFinite(uc) {
			// A non-finite input is no admissible input: applied, it
			// would make the state and the energy count non-finite.
			err = fmt.Errorf("%w: κ returned the non-finite input %v", controller.ErrInfeasible, uc)
		}
		switch {
		case err == nil:
			u = uc
			res.ControllerCalls++
		case s.degrade && !forced:
			// Degraded mode: the compute was optional (x ∈ X′), so the
			// zero-input skip it falls back to is exactly the choice
			// Theorem 1 already certifies — the step proceeds as a skip.
			run = false
			res.Degraded++
		default:
			// A κ failure with no safe fallback is terminal: the session
			// has no admissible input to apply, so it closes and every
			// further Step reports ErrSessionClosed instead of undefined
			// behavior on reuse.
			s.closed = true
			return Step{}, fmt.Errorf("core: Session.Step: κ failed at %v (level %v): %w", s.x, level, err)
		}
	}

	f.Sys.StepInto(s.xNext, s.x, u, w)
	res.Energy += u.Norm1()
	if run {
		res.Runs++
		if forced {
			res.Forced++
		}
	} else {
		res.Skips++
	}
	if !f.Sets.X.Contains(s.xNext, 1e-7) {
		res.ViolationsX++
	}
	if !f.Sets.XI.Contains(s.xNext, 1e-7) {
		res.ViolationsXI++
	}

	// Slide the disturbance window (most recent last), recycling the
	// oldest slot's buffer for the incoming disturbance.
	oldest := s.wHist[0]
	copy(s.wHist, s.wHist[1:])
	s.wHist[len(s.wHist)-1] = oldest
	copy(oldest, w)

	s.x, s.xNext = s.xNext, s.x
	s.leveled = false
	s.t++
	// Views, valid until the next Step: the state buffers are recycled, u
	// is either the shared zero input or the controller's per-call output,
	// and w is the caller's own slice.
	return Step{Ran: run, Forced: forced, Level: level, W: w, U: u, X: s.x}, nil
}

// allFinite reports whether every entry of v is finite.
func allFinite(v mat.Vec) bool {
	for _, a := range v {
		if math.IsInf(a, 0) || math.IsNaN(a) {
			return false
		}
	}
	return true
}

// Run executes steps iterations of Algorithm 1 from x0 with disturbances
// drawn from dist (nil means zero disturbance).
func (f *Framework) Run(x0 mat.Vec, steps int, dist lti.Disturb) (*Result, error) {
	sess, err := f.NewSession(x0)
	if err != nil {
		return nil, err
	}
	for t := 0; t < steps; t++ {
		var w mat.Vec
		if dist != nil {
			w = dist(t)
		} else {
			w = make(mat.Vec, f.Sys.NX())
		}
		if _, err := sess.Step(w); err != nil {
			return sess.Result, err
		}
	}
	return sess.Result, nil
}
