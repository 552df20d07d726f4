package oic

import (
	"fmt"
	"time"

	"oic/internal/audit"
	"oic/internal/core"
	"oic/internal/trace"
)

// ReplayOptions tunes a replay (DESIGN.md §8). The zero value is a
// conformance replay: the recorded episode re-runs under its own policy
// and an unlimited budget, and the report's Diff.Identical asserts
// byte-identical decisions and states.
type ReplayOptions struct {
	// Policy substitutes the skipping policy Ω for the what-if run; ""
	// replays under the trace's recorded policy. PolicyDRL requires the
	// replaying engine to have been built with a DRL policy.
	Policy string `json:"policy,omitempty"`
	// ComputeBudget caps the total κ computations across the replayed
	// episode (≤ 0 = unlimited). Policy-chosen computes beyond the budget
	// are shed into guaranteed-safe skips; monitor-forced computes always
	// run — safety is never traded for budget.
	ComputeBudget int `json:"compute_budget,omitempty"`
	// Audit re-verifies the *recorded* trace against the engine's declared
	// model and safety sets (internal/audit) and attaches the findings —
	// the audit-trail half of the replay service.
	Audit bool `json:"audit,omitempty"`
	// IncludeTrace attaches the replayed episode's own trace to the
	// report (what-if consumers chain replays or persist the branch).
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// AuditFinding is the wire form of one internal/audit violation.
type AuditFinding struct {
	Step int    `json:"step"`
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// AuditReport is the wire form of an offline trace re-verification.
type AuditReport struct {
	Steps    int            `json:"steps"`
	Clean    bool           `json:"clean"`
	Findings []AuditFinding `json:"findings,omitempty"`
}

// ReplayReport is the outcome of replaying a recorded episode: the
// structured diff between the recorded and replayed runs plus the safety
// accounting of both.
type ReplayReport struct {
	Plant    string `json:"plant"`
	Scenario string `json:"scenario"`
	// RecordedPolicy is the trace's policy; ReplayedPolicy the one the
	// replay ran (same unless ReplayOptions.Policy substituted it).
	RecordedPolicy string `json:"recorded_policy"`
	ReplayedPolicy string `json:"replayed_policy"`
	ComputeBudget  int    `json:"compute_budget,omitempty"`

	// Diff is the step-by-step comparison (A = recorded, B = replayed).
	Diff TraceDiff `json:"diff"`

	// Shed counts policy-chosen computes the replay budget converted into
	// safe skips (0 with an unlimited budget).
	Shed int `json:"shed"`

	// SafetyMargin* is the minimum over every state (x0 and successors)
	// of the distance to the XI boundary — positive means the whole
	// episode stayed strictly inside the Theorem 1 invariant; the delta
	// between the two is the what-if's safety cost or gain.
	SafetyMarginRecorded float64 `json:"safety_margin_recorded"`
	SafetyMarginReplayed float64 `json:"safety_margin_replayed"`

	// Violations counts replayed successor states outside X (Theorem 1:
	// stays 0 under any policy or budget).
	Violations int `json:"violations"`

	// Audit carries the recorded trace's re-verification when
	// ReplayOptions.Audit was set.
	Audit *AuditReport `json:"audit,omitempty"`

	// Trace is the replayed episode when ReplayOptions.IncludeTrace was
	// set.
	Trace *Trace `json:"trace,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
}

// AuditTrace re-verifies a recorded trace offline against the engine's
// declared dynamics and safety sets (internal/audit): disturbances inside
// W, transitions consistent with the model, every state inside X and XI,
// monitor semantics per Algorithm 1, and the recorded energy matching the
// inputs. A clean report means the log is consistent with the safety
// guarantee; a tampered or out-of-model log yields typed findings.
func (e *Engine) AuditTrace(t *Trace) (*AuditReport, error) {
	if err := e.checkTrace(t); err != nil {
		return nil, err
	}
	rep := audit.Run(e.System(), e.SafetySets(), t, audit.Options{})
	out := &AuditReport{Steps: rep.Steps, Clean: rep.OK()}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, AuditFinding{Step: f.Step, Kind: f.Kind.String(), Msg: f.Msg})
	}
	return out, nil
}

// Replay re-runs a recorded episode on this engine — same initial state,
// same disturbance realizations — under the trace's own policy or a
// substituted one, optionally against a compute budget, and reports the
// structured diff. With zero options the replay is a conformance check:
// decisions and states must come back byte-identical (Diff.Identical),
// because the session pool resets controllers to their cold state and the
// whole stack is deterministic.
func (e *Engine) Replay(t *Trace, opts ReplayOptions) (*ReplayReport, error) {
	start := time.Now()
	if err := e.checkTrace(t); err != nil {
		return nil, err
	}
	polName := opts.Policy
	if polName == "" {
		polName = t.Meta.Policy
	}
	pol, err := e.resolvePolicy(polName)
	if err != nil {
		return nil, err
	}

	cs, err := e.acquireCore(t.X0)
	if err != nil {
		return nil, err
	}
	defer e.releaseCore(cs)

	meta := e.traceMeta()
	meta.Policy = pol.Name()
	rec := trace.NewRecorder(meta, t.X0, e.NU(), 0)
	mon := e.fw.Monitor()
	computes, shed := 0, 0
	for i := range t.Steps {
		x := cs.StateView()
		run := true
		if mon.Level(x) == core.InXPrime {
			// Consult Ω exactly as the recorded path did (same t, state
			// view, and disturbance window), then apply the what-if
			// budget: once spent, optional computes shed into safe skips.
			run = pol.Decide(cs.Time(), x, cs.RecentWView())
			if run && opts.ComputeBudget > 0 && computes >= opts.ComputeBudget {
				run, shed = false, shed+1
			}
		}
		st, err := cs.StepWithChoice(t.Steps[i].W, run)
		if err != nil {
			return nil, fmt.Errorf("oic: replay step %d: %w", i, err)
		}
		if st.Ran {
			computes++
		}
		_ = rec.Append(st)
	}

	replayed := rec.Trace()
	rep := &ReplayReport{
		Plant:          e.cfg.Plant,
		Scenario:       e.ScenarioID(),
		RecordedPolicy: t.Meta.Policy,
		ReplayedPolicy: pol.Name(),
		ComputeBudget:  opts.ComputeBudget,
		Diff:           trace.Compare(t, replayed),
		Shed:           shed,
		Violations:     cs.Result.ViolationsX,
	}
	rep.SafetyMarginRecorded = e.safetyMargin(t)
	rep.SafetyMarginReplayed = e.safetyMargin(replayed)
	if opts.Audit {
		if rep.Audit, err = e.AuditTrace(t); err != nil {
			return nil, err
		}
	}
	if opts.IncludeTrace {
		rep.Trace = replayed
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// safetyMargin returns the episode's minimum distance to the XI boundary
// (−max violation over x0 and every successor): positive means every
// state stayed strictly inside the Theorem 1 invariant.
func (e *Engine) safetyMargin(t *Trace) float64 {
	xi := e.SafetySets().XI
	margin := 0.0
	for i, x := range t.States() {
		m := -xi.Violation(x)
		if i == 0 || m < margin {
			margin = m
		}
	}
	return margin
}

// Replay rebuilds the engine a trace fingerprints (plant, scenario,
// policy, memory, training budget and seed — a DRL policy retrains
// identically) and replays the episode on it. Callers that already hold
// the engine — the oicd server's cache, the conformance tests — use
// Engine.Replay directly and skip the rebuild.
func Replay(t *Trace, opts ReplayOptions) (*ReplayReport, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrTraceMismatch)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	eng, err := NewEngine(ConfigFromTrace(t))
	if err != nil {
		return nil, err
	}
	return eng.Replay(t, opts)
}
