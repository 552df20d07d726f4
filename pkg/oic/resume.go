package oic

// Crash-safe durability facade (DESIGN.md §10): the step-event hooks the
// oicd server uses to write-ahead journal every executed step, and the
// resume-to-head path that folds a recovered episode back into a live
// session. Recovery is a *verified* replay — every replayed step must
// reproduce the recorded input and successor bit-for-bit, because the
// whole stack (LP warm-start chain included) is deterministic. A journal
// that replays clean proves the recovered session is byte-identical to
// one that never crashed; one that diverges fails with ErrResumeMismatch
// rather than serving silently-wrong state.

import (
	"fmt"
	"math"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/trace"
)

// StepEvent is what the step hooks receive: the executed step itself —
// exactly the payload a write-ahead journal persists to replay it, and
// the same value a trace records. Its step index is its position in the
// session's or member's stream. The slices are views into runtime
// buffers, valid only for the duration of the hook call: a hook that
// retains them must copy (journal writers encode into their own buffer,
// so the hot path stays allocation-free).
type StepEvent = TraceStep

// SetStepHook installs fn (nil clears) to be called synchronously after
// every successful step, before the step's result is returned — the
// write-ahead ordering a durability journal needs. The hook runs under
// the session lock; it must not call back into the session.
func (s *Session) SetStepHook(fn func(StepEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = fn
}

// SetStepHook installs fn (nil clears) to be called synchronously after
// every successful member step with the member's fleet ID. Steps within
// a tick execute on a worker pool, so fn must be safe for concurrent
// calls; events are per-member ordered (a member steps once per tick)
// and each event is delivered before its tick completes.
func (f *Fleet) SetStepHook(fn func(member int, ev StepEvent)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hook = fn
}

// SetDegrade toggles graceful degradation on the session: a κ failure at
// a state the monitor did not force (x ∈ X′, so the zero-input skip is
// certified safe by Theorem 1) downgrades to that skip — counted in
// SessionInfo.Degraded — instead of closing the session. Forced-compute
// failures stay terminal regardless. No-op on a closed session.
func (s *Session) SetDegrade(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.cs.SetDegrade(on)
}

// ResumeOptions tunes ResumeSession.
type ResumeOptions struct {
	// Trace re-arms episode recording on the resumed session, seeded with
	// the replayed prefix, so trace reads keep serving the whole episode
	// across a crash. TraceLimit mirrors StartTrace's limit (0 unlimited);
	// a prefix already at the limit leaves the session refusing further
	// steps with ErrTraceLimit, same as before the crash.
	Trace      bool
	TraceLimit int
}

// ResumeSession rebuilds a live session positioned at the head of a
// recorded episode: the trace must fingerprint this engine, and every
// recorded step is replayed with its recorded decision and verified to
// reproduce the recorded input and successor exactly (Float64bits
// equality). On any divergence the workspace is recycled and
// ErrResumeMismatch returned.
func (e *Engine) ResumeSession(t *Trace, opts ResumeOptions) (*Session, error) {
	cs, err := e.resumeCore(t)
	if err != nil {
		return nil, err
	}
	s := &Session{eng: e, cs: cs}
	if opts.Trace {
		s.rec = e.resumeRecorder(t, opts.TraceLimit)
	}
	return s, nil
}

// ResumeMember re-admits one recovered member under its pre-crash fleet
// ID, replaying its episode to head with the same verification as
// ResumeSession. IDs must arrive in ascending order and above any ID the
// fleet has already issued — recovery admits members sorted by ID, and
// the fleet's ID counter advances past each so post-recovery admissions
// never collide. Admission control (capacity, not backpressure — the
// members existed before the crash) still applies.
func (f *Fleet) ResumeMember(id int, t *Trace) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrFleetClosed
	}
	if id < f.nextID {
		return fmt.Errorf("%w: member ID %d already issued (next is %d)", ErrResumeMismatch, id, f.nextID)
	}
	if len(f.members) >= f.cfg.MaxSessions {
		f.stats.Rejected++
		return ErrFleetFull
	}
	cs, err := f.eng.resumeCore(t)
	if err != nil {
		return err
	}
	if f.cfg.Degrade {
		cs.SetDegrade(true)
	}
	m := &fleetMember{f: f, id: id, cs: cs, w: make(mat.Vec, f.eng.NX())}
	if f.cfg.Trace {
		m.rec = f.eng.resumeRecorder(t, f.cfg.TraceLimit)
	}
	f.byID[id] = len(f.members)
	f.members = append(f.members, m)
	f.roster = append(f.roster, m)
	f.nextID = id + 1
	f.stats.Admitted++
	return nil
}

// ReserveMemberIDs advances the fleet's member-ID counter to at least
// next. Recovery calls it after resuming a fleet whose journal shows
// evicted members with IDs above every live one — those IDs were issued
// before the crash and must never be reissued, or the journal's history
// for the fleet would alias two members.
func (f *Fleet) ReserveMemberIDs(next int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if next > f.nextID {
		f.nextID = next
	}
}

// resumeCore replays a recorded episode to its head on a pooled
// workspace, verifying each step bit-for-bit against the record.
func (e *Engine) resumeCore(t *Trace) (*core.Session, error) {
	if err := e.checkTrace(t); err != nil {
		return nil, err
	}
	cs, err := e.acquireCore(t.X0)
	if err != nil {
		return nil, err
	}
	for i := range t.Steps {
		st := &t.Steps[i]
		r, err := cs.StepWithChoice(st.W, st.Ran)
		if err != nil {
			e.releaseCore(cs)
			return nil, fmt.Errorf("oic: resume step %d: %w", i, err)
		}
		if r.Ran != st.Ran || !bitsEqual(r.U, st.U) || !bitsEqual(r.X, st.X) {
			e.releaseCore(cs)
			return nil, fmt.Errorf("%w: step %d", ErrResumeMismatch, i)
		}
	}
	return cs, nil
}

// resumeRecorder rebuilds an episode recorder already holding the
// replayed prefix, so the resumed session's trace is the uninterrupted
// episode. Appends beyond a positive limit are dropped by the recorder
// itself (it reports Full), matching the pre-crash behavior.
func (e *Engine) resumeRecorder(t *Trace, limit int) *trace.Recorder {
	rec := trace.NewRecorder(e.traceMeta(), t.X0, e.NU(), limit)
	for i := range t.Steps {
		_ = rec.Append(t.Steps[i])
	}
	return rec
}

// bitsEqual is exact float equality (IEEE-754 bit patterns): recovery
// conformance admits no tolerance — the stack is deterministic.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
