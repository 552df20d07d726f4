package oic

import (
	"fmt"

	"oic/internal/trace"
)

// Trace is the recorded-episode wire format (DESIGN.md §8): the engine
// fingerprint plus, per step, the realized disturbance, the skip/run
// decision, the applied input, and the successor state. The alias makes
// internal/trace's canonical types part of the public facade without a
// parallel copy: EncodeTrace/DecodeTrace are the binary codec, and the
// struct marshals to the JSON shape the oicd trace/replay endpoints speak.
type Trace = trace.Trace

// TraceMeta is a trace's engine-configuration fingerprint.
type TraceMeta = trace.Meta

// TraceStep is one recorded control step.
type TraceStep = trace.Step

// TraceDiff summarizes how a replayed episode differs from the recorded
// one (see ReplayReport).
type TraceDiff = trace.Diff

// EncodeTrace serializes a trace into the canonical binary form
// (Encode(DecodeTrace(b)) == b for every valid b).
func EncodeTrace(t *Trace) ([]byte, error) { return trace.Encode(t) }

// DecodeTrace parses a canonical binary trace, rejecting malformed input
// (bad magic/version, dimension and length inconsistencies, checksum
// failures) without unbounded allocation.
func DecodeTrace(b []byte) (*Trace, error) { return trace.Decode(b) }

// traceMeta returns the engine's trace fingerprint: exactly the Config
// needed to rebuild this engine (ConfigFromTrace inverts it). The
// scenario and the disturbance memory are stored resolved — the concrete
// ID and window, never the "default" shorthands — so the fingerprint
// survives default changes and equivalent engines fingerprint equally.
func (e *Engine) traceMeta() trace.Meta {
	cfg := e.cfg
	cfg.Scenario, cfg.Memory = e.ScenarioID(), e.memory
	return cfg.meta()
}

// TraceMeta returns the engine's configuration fingerprint as trace
// metadata — the identity a durability journal stores with every opened
// session so crash recovery can rebuild the exact engine
// (NewEngine(ConfigFromTrace) or an artifact-store hit).
func (e *Engine) TraceMeta() TraceMeta { return e.traceMeta() }

// meta is c's engine fingerprint, the inverse of ConfigFromMeta.
func (c Config) meta() trace.Meta {
	return trace.Meta{
		Plant:         c.Plant,
		Scenario:      c.Scenario,
		Policy:        c.Policy,
		Memory:        c.Memory,
		TrainEpisodes: c.Train.Episodes,
		TrainSteps:    c.Train.Steps,
		TrainSeed:     c.Train.Seed,
	}
}

// ConfigFromMeta inverts an engine fingerprint — as stored by a trace, an
// artifact or a journaled fleet — into the engine configuration it names.
func ConfigFromMeta(m TraceMeta) Config {
	return Config{
		Plant:    m.Plant,
		Scenario: m.Scenario,
		Policy:   m.Policy,
		Memory:   m.Memory,
		Train: TrainConfig{
			Episodes: m.TrainEpisodes,
			Steps:    m.TrainSteps,
			Seed:     m.TrainSeed,
		},
	}
}

// ConfigFromTrace inverts a trace's fingerprint into the engine
// configuration that recorded it — NewEngine(ConfigFromTrace(t)) rebuilds
// the same compiled artifacts (including retraining an identical DRL
// policy, since the training budget and seed are part of the fingerprint).
func ConfigFromTrace(t *Trace) Config { return ConfigFromMeta(t.Meta) }

// checkTrace validates a trace and verifies it fingerprints this engine's
// plant, scenario, dimensions, and disturbance-memory — the preconditions
// for replaying it here.
func (e *Engine) checkTrace(t *Trace) error {
	if t == nil {
		return fmt.Errorf("%w: nil trace", ErrTraceMismatch)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Meta.Plant != e.cfg.Plant || t.Meta.Scenario != e.ScenarioID() {
		return fmt.Errorf("%w: trace recorded on %s/%s, engine serves %s/%s",
			ErrTraceMismatch, t.Meta.Plant, t.Meta.Scenario, e.cfg.Plant, e.ScenarioID())
	}
	if t.NX != e.NX() || t.NU != e.NU() {
		return fmt.Errorf("%w: trace dims %d×%d, engine %d×%d",
			ErrTraceMismatch, t.NX, t.NU, e.NX(), e.NU())
	}
	if t.Meta.Memory != e.memory {
		return fmt.Errorf("%w: trace disturbance memory %d, engine %d",
			ErrTraceMismatch, t.Meta.Memory, e.memory)
	}
	return nil
}

// StartTrace begins recording this session's episode. It must be called
// before the first step (a mid-episode recording could not be replayed
// deterministically: the controller's warm-start chain depends on the
// whole episode), and is idempotent. limit caps the recorded steps — once
// reached, further Steps fail with ErrTraceLimit rather than silently
// truncating the record; 0 means unlimited (library use; servers cap).
//
// Tracing costs one bounded append per step; a session that never calls
// StartTrace pays a single nil check.
func (s *Session) StartTrace(limit int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.rec != nil {
		return nil
	}
	if s.cs.Time() != 0 {
		return fmt.Errorf("oic: StartTrace: session already at t=%d; tracing must start before the first step", s.cs.Time())
	}
	s.rec = trace.NewRecorder(s.eng.traceMeta(), s.cs.StateView(), s.eng.NU(), limit)
	return nil
}

// Tracing reports whether the session records its episode.
func (s *Session) Tracing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec != nil
}

// Trace materializes the episode recorded so far. It keeps working after
// Close (the recording survives workspace recycling), and returns
// ErrNotTracing when StartTrace was never called.
func (s *Session) Trace() (*Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec == nil {
		return nil, ErrNotTracing
	}
	return s.rec.Trace(), nil
}
