package oic

import (
	"context"
	"fmt"
	"sync"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/trace"
)

// Session is one in-flight closed-loop run over an Engine. Sessions are
// cheap: the expensive solver workspace underneath is recycled through the
// engine's pool across Close/NewSession cycles, reset to its cold state on
// reuse so pooled and fresh sessions produce byte-identical trajectories.
//
// A Session serializes its own Step/Info/Close calls with an internal
// mutex, so one session may be shared across goroutines (steps interleave
// in lock order); different sessions never contend.
type Session struct {
	mu     sync.Mutex
	eng    *Engine
	cs     *core.Session
	rec    *trace.Recorder // episode recording; nil unless StartTrace was called
	hook   func(StepEvent) // write-ahead journaling hook; nil unless SetStepHook
	frozen bool            // migration handoff in progress; steps refuse
	closed bool
	final  SessionInfo // snapshot served after Close (the workspace is recycled)
}

// NewSession opens a session at x0, which must lie inside XI. The
// workspace comes from the engine's pool when one is available.
func (e *Engine) NewSession(x0 []float64) (*Session, error) {
	cs, err := e.acquireCore(x0)
	if err != nil {
		return nil, err
	}
	return &Session{eng: e, cs: cs}, nil
}

// Step advances the session one iteration of Algorithm 1 under the
// disturbance w (nil means zero disturbance) and returns the owned wire
// result. Sentinels: ErrSessionClosed after Close or a terminal failure,
// ErrBadDimension for a wrong-length w, ErrInfeasible when κ has no
// admissible input, and the context's error on cancellation.
func (s *Session) Step(ctx context.Context, w []float64) (StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked(ctx, w)
}

func (s *Session) stepLocked(ctx context.Context, w []float64) (StepResult, error) {
	if s.closed {
		return StepResult{}, ErrSessionClosed
	}
	if s.frozen {
		return StepResult{}, ErrSessionFrozen
	}
	if w == nil {
		w = s.eng.zeroW
	}
	if len(w) != s.eng.NX() {
		return StepResult{}, fmt.Errorf("%w: w has dim %d, want %d", ErrBadDimension, len(w), s.eng.NX())
	}
	if s.rec != nil && s.rec.Full() {
		// Refuse to step rather than silently truncate the recording: a
		// trace either covers its whole episode or the episode stops.
		return StepResult{}, fmt.Errorf("%w: %d steps", ErrTraceLimit, s.rec.Len())
	}
	st, err := s.cs.StepContext(ctx, mat.Vec(w))
	if err != nil {
		return StepResult{}, err
	}
	if s.rec != nil {
		// st carries views; the recorder copies into its arenas.
		_ = s.rec.Append(st)
	}
	if s.hook != nil {
		s.hook(st)
	}
	// st carries buffer views; clone at the facade boundary so the wire
	// result is owned by the caller.
	return StepResult{
		T:      s.cs.Time() - 1,
		Level:  st.Level.String(),
		Ran:    st.Ran,
		Forced: st.Forced,
		U:      append([]float64(nil), st.U...),
		X:      append([]float64(nil), st.X...),
	}, nil
}

// StepMany applies the disturbance sequence ws in order, stopping at the
// first failure; it returns the results of every executed step and the
// error that stopped the run, if any. The context is checked before each
// step.
func (s *Session) StepMany(ctx context.Context, ws [][]float64) ([]StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StepResult, 0, len(ws))
	for _, w := range ws {
		r, err := s.stepLocked(ctx, w)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// State returns an owned snapshot of the current state (the last state
// before Close for a closed session).
func (s *Session) State() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return append([]float64(nil), s.final.X...)
	}
	return append([]float64(nil), s.cs.StateView()...)
}

// Time returns the number of completed steps.
func (s *Session) Time() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.final.T
	}
	return s.cs.Time()
}

// Info returns a wire snapshot of the session (state cloned, counters
// copied). After Close it serves the final pre-close snapshot — the
// underlying workspace may already be running another session.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked()
}

func (s *Session) infoLocked() SessionInfo {
	if s.closed {
		return s.final
	}
	res := s.cs.Result
	x := s.cs.StateView()
	return SessionInfo{
		Plant:      s.eng.PlantName(),
		Scenario:   s.eng.ScenarioID(),
		Policy:     s.eng.PolicyName(),
		Memory:     s.eng.memory,
		NU:         s.eng.NU(),
		T:          s.cs.Time(),
		X:          append([]float64(nil), x...),
		Level:      s.eng.fw.Monitor().Level(x).String(),
		Skips:      res.Skips,
		Runs:       res.Runs,
		Forced:     res.Forced,
		Violations: res.ViolationsX,
		Degraded:   res.Degraded,
		Energy:     res.Energy,
		Frozen:     s.frozen,
		Closed:     s.cs.Closed(),
	}
}

// Freeze suspends stepping for a migration handoff: further Steps return
// ErrSessionFrozen while reads (Info, Trace, State) keep serving, so a
// drain protocol can export a quiescent episode with no step racing the
// copy. It returns the frozen snapshot — the state the migration target
// must reproduce bit-for-bit. Freeze is idempotent; ErrSessionClosed
// after Close.
func (s *Session) Freeze() (SessionInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionInfo{}, ErrSessionClosed
	}
	s.frozen = true
	return s.infoLocked(), nil
}

// Unfreeze aborts a migration handoff and resumes stepping. It is the
// rollback path of Freeze: a no-op unless frozen, ErrSessionClosed after
// Close.
func (s *Session) Unfreeze() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	s.frozen = false
	return nil
}

// Frozen reports whether the session is frozen for migration.
func (s *Session) Frozen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frozen
}

// Close terminates the session and returns its workspace to the engine's
// pool for reuse. Further Steps return ErrSessionClosed; Info keeps
// serving the final snapshot. Close is idempotent and never fails; the
// error return keeps the io.Closer shape.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.final = s.infoLocked()
	s.final.Closed = true
	s.closed = true
	cs := s.cs
	s.cs = nil
	s.eng.releaseCore(cs)
	return nil
}
