// Package audit re-verifies recorded framework runs (traces) offline. It
// treats the execution as untrusted and checks, step by step, that
//
//   - the realized disturbances were inside the declared set W (an
//     out-of-model environment voids every guarantee — the most common
//     integration mistake);
//   - the recorded transitions are consistent with the declared dynamics;
//   - every state respected the Theorem 1 invariant (x ∈ XI) and the safe
//     set X;
//   - the monitor behaved per Algorithm 1: interventions happened exactly
//     when the state was outside X′, and skipped steps applied zero input;
//   - the reported energy matches the inputs.
//
// The auditor is the runtime-assurance complement to the constructive
// guarantees: DESIGN.md's safety claims are validated on every experiment's
// recorded data, not just proven about the code.
package audit

import (
	"fmt"

	"oic/internal/core"
	"oic/internal/lti"
	"oic/internal/mat"
	"oic/internal/trace"
)

// Finding is one audit violation.
type Finding struct {
	Step int
	Kind Kind
	Msg  string
}

// Kind classifies audit findings.
type Kind int

// Finding kinds.
const (
	OutOfModelDisturbance Kind = iota // w(t) ∉ W
	DynamicsMismatch                  // x(t+1) ≠ A·x + B·u + c + w
	SafetyViolation                   // x ∉ X
	InvariantViolation                // x ∉ XI
	MonitorInconsistency              // forced flag disagrees with X′ membership
	SkipActuated                      // z = 0 but u ≠ 0
	EnergyMismatch                    // reported energy ≠ Σ‖u‖₁
)

func (k Kind) String() string {
	switch k {
	case OutOfModelDisturbance:
		return "out-of-model-disturbance"
	case DynamicsMismatch:
		return "dynamics-mismatch"
	case SafetyViolation:
		return "safety-violation"
	case InvariantViolation:
		return "invariant-violation"
	case MonitorInconsistency:
		return "monitor-inconsistency"
	case SkipActuated:
		return "skip-actuated"
	case EnergyMismatch:
		return "energy-mismatch"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Report is the outcome of an audit.
type Report struct {
	Steps    int
	Findings []Finding
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

// Count returns the number of findings of the given kind.
func (r *Report) Count(k Kind) int {
	n := 0
	for _, f := range r.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// String summarizes the report.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("audit: %d steps, clean", r.Steps)
	}
	return fmt.Sprintf("audit: %d steps, %d findings (first: step %d %v: %s)",
		r.Steps, len(r.Findings), r.Findings[0].Step, r.Findings[0].Kind, r.Findings[0].Msg)
}

// The audit's tolerances: a recorded successor may differ from the
// re-simulated one by dynTol in each component, a state or disturbance
// may violate a set's constraints by setTol (poly.Violation), and the
// recorded energy may differ from the sum of the recorded inputs'
// 1-norms by energyTol.
const (
	dynTol    = 1e-7
	setTol    = 1e-7
	energyTol = 1e-6
)

// Run audits a recorded episode against the declared system and safety
// sets. Each step's pre-state is the previous step's successor (the
// trace's x0 for step 0); the recorded energy is checked against the
// recorded inputs.
func Run(sys *lti.System, sets core.SafetySets, t *trace.Trace) *Report {
	rep := &Report{Steps: len(t.Steps)}
	add := func(step int, kind Kind, format string, args ...interface{}) {
		rep.Findings = append(rep.Findings, Finding{Step: step, Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}

	energy := 0.0
	x := mat.Vec(t.X0)
	for i := range t.Steps {
		st := &t.Steps[i]
		energy += st.U.Norm1()

		// Disturbance inside W.
		if sys.W != nil {
			if v := sys.W.Violation(st.W); v > setTol {
				add(i, OutOfModelDisturbance, "w=%v violates W by %.3g", st.W, v)
			}
		}
		// Transition consistency.
		pred := sys.Step(x, st.U, st.W)
		if !pred.Equal(st.X, dynTol) {
			add(i, DynamicsMismatch, "recorded %v vs predicted %v", st.X, pred)
		}
		// Safety and invariance of the successor.
		if v := sets.X.Violation(st.X); v > setTol {
			add(i, SafetyViolation, "x⁺=%v outside X by %.3g", st.X, v)
		}
		if v := sets.XI.Violation(st.X); v > setTol {
			add(i, InvariantViolation, "x⁺=%v outside XI by %.3g", st.X, v)
		}
		// Monitor semantics (Algorithm 1): outside X′ ⇒ ran and forced;
		// a recorded skip must be inside X′ and must not actuate.
		inXPrime := sets.XPrime.Contains(x, setTol)
		if !inXPrime && !st.Ran {
			add(i, MonitorInconsistency, "skipped outside X' at %v", x)
		}
		if st.Forced && inXPrime {
			// Tolerance asymmetry can misclassify states on the boundary;
			// flag only clear interior points.
			if sets.XPrime.Violation(x) < -setTol {
				add(i, MonitorInconsistency, "forced inside X' at %v", x)
			}
		}
		if !st.Ran {
			if st.U.Norm1() > 0 {
				add(i, SkipActuated, "skip applied u=%v", st.U)
			}
		}
		x = st.X
	}
	if diff := energy - t.Energy; diff > energyTol || diff < -energyTol {
		add(len(t.Steps), EnergyMismatch, "steps sum %.9g, recorded %.9g", energy, t.Energy)
	}
	return rep
}
