package cluster

import (
	"oic/internal/core"
	"oic/internal/trace"
	"oic/pkg/oic"
)

// The router shadows every proxied session: it forces trace recording on
// the owning node AND keeps its own recording of every acknowledged step,
// rebuilt from nothing but wire responses. The shadow is what makes
// failover possible without shared storage — when a node dies taking its
// journal with it, the router ships the shadow episode to a survivor and
// replays it to head. Because the shadow records only acknowledged steps,
// a step that died in flight was never recorded, so a client retry after
// failover lands exactly once.

// levelCode inverts core.Level.String() — wire responses carry the level
// as its display string, the step value as its code.
func levelCode(s string) (core.Level, bool) {
	for l := core.InXPrime; l <= core.Unsafe; l++ {
		if s == l.String() {
			return l, true
		}
	}
	return 0, false
}

// shadow is one session's router-side recording. Not safe for concurrent
// use — the owning sessEntry's mutex serializes it.
type shadow struct {
	rec     *trace.Recorder
	nx      int
	zeros   []float64 // reusable zero disturbance for w-omitted steps
	dropped bool      // recording stopped (limit hit or malformed response); failover impossible
}

// newShadow starts a shadow from a create response. The SessionInfo wire
// type carries the resolved scenario, policy, memory, and input dimension
// precisely so this reconstruction fingerprints identically to the node's
// own recording; train is the canonicalized training budget (zero unless
// the policy is DRL).
func newShadow(info *oic.SessionInfo, train oic.TrainConfig, limit int) *shadow {
	meta := trace.Meta{
		Plant:         info.Plant,
		Scenario:      info.Scenario,
		Policy:        info.Policy,
		Memory:        info.Memory,
		TrainEpisodes: train.Episodes,
		TrainSteps:    train.Steps,
		TrainSeed:     train.Seed,
	}
	return &shadow{
		rec:   trace.NewRecorder(meta, info.X, info.NU, limit),
		nx:    len(info.X),
		zeros: make([]float64, len(info.X)),
	}
}

// shadowFromTrace rebuilds a shadow positioned at the head of an episode
// the router just shipped — after a migration the new owner's recording
// and the shadow must stay in lockstep.
func shadowFromTrace(t *oic.Trace, limit int) *shadow {
	sh := &shadow{
		rec:   trace.NewRecorder(t.Meta, t.X0, t.NU, limit),
		nx:    t.NX,
		zeros: make([]float64, t.NX),
	}
	for _, st := range t.Steps {
		if err := sh.rec.Append(st); err != nil {
			sh.dropped = true
			break
		}
	}
	return sh
}

// append records one acknowledged step. A nil w is the zero disturbance
// (the "empty body" step). Any inconsistency — unknown level string,
// recorder full, dimension mismatch — permanently drops the shadow
// rather than recording a lie; the session keeps serving, it just can no
// longer fail over.
func (sh *shadow) append(w []float64, res *oic.StepResult) bool {
	if sh == nil || sh.dropped || res.Error != "" {
		return false
	}
	if w == nil {
		w = sh.zeros
	}
	lv, ok := levelCode(res.Level)
	if !ok {
		sh.dropped = true
		return false
	}
	st := trace.Step{Ran: res.Ran, Forced: res.Forced, Level: lv, W: w, U: res.U, X: res.X}
	if err := sh.rec.Append(st); err != nil {
		sh.dropped = true
		return false
	}
	return true
}

// usable reports whether the shadow can back a failover.
func (sh *shadow) usable() bool { return sh != nil && !sh.dropped }
