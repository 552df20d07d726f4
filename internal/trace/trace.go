// Package trace defines the recorded-episode wire format of the runtime
// (DESIGN.md §8): a versioned, deterministic encoding of one closed-loop
// run of Algorithm 1 — the engine-configuration fingerprint, the initial
// state, and per step the realized disturbance, the skip/run decision, the
// applied input, and the successor state.
//
// A trace is the runtime's audit trail (internal/audit re-verifies every
// recorded step against the declared model and safety sets) and the input
// to the replay service (pkg/oic.Replay re-runs a logged episode under the
// same or a substituted policy/budget and diffs the accounting). The
// binary encoding is canonical: Encode(Decode(b)) == b for every valid b,
// a property the FuzzDecodeTrace fuzzer pins, so byte comparison of
// encoded traces is a valid conformance check across refactors.
package trace

import (
	"fmt"
	"math"

	"oic/internal/core"
	"oic/internal/frame"
	"oic/internal/mat"
)

// Version is the wire-format version this package encodes. Decoders accept
// exactly this version; bumping it is a wire-format change.
const Version = 1

// Hard format limits, enforced by Validate and Decode. They bound what a
// hostile encoded trace can make a decoder allocate.
const (
	// MaxDim caps the state and input dimensions (the largest plant is
	// far below this; matches the server's disturbance-memory cap).
	MaxDim = 64
	// MaxSteps caps the episode length.
	MaxSteps = 1 << 20
	// MaxString caps the fingerprint string lengths.
	MaxString = frame.MaxString
)

// Meta is the engine-configuration fingerprint a trace was recorded
// under: the exact pkg/oic.Config needed to rebuild the engine (compiled
// sets, controller program, trained policy) that produced the episode.
// Scenario is always the resolved ID and Memory the resolved window,
// never the defaulting shorthands, so a fingerprint is stable across
// default changes.
type Meta = frame.Meta

// Step is one recorded control step: the runtime's step value itself, so
// a step goes from the core session into a recording without a copy of
// its shape.
type Step = core.Step

// Trace is one recorded episode.
type Trace struct {
	Version int       `json:"version"`
	Meta    Meta      `json:"meta"`
	NX      int       `json:"nx"`
	NU      int       `json:"nu"`
	X0      []float64 `json:"x0"`
	Steps   []Step    `json:"steps"`
	// Energy is Σ‖u‖₁ as accumulated by the runtime (same float order),
	// so a clean audit implies the recorded accounting matches the inputs.
	Energy float64 `json:"energy"`
}

// Len returns the number of recorded steps.
func (t *Trace) Len() int { return len(t.Steps) }

// Validate checks the structural invariants of a trace: supported
// version, dimensions and lengths within the format limits and consistent
// across steps, level codes in range, and finite energy. Decode runs it;
// JSON consumers must call it themselves.
func (t *Trace) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("trace: unsupported version %d (want %d)", t.Version, Version)
	}
	if len(t.Meta.Plant) == 0 {
		return fmt.Errorf("trace: empty plant name")
	}
	for _, s := range []struct{ name, v string }{
		{"plant", t.Meta.Plant}, {"scenario", t.Meta.Scenario}, {"policy", t.Meta.Policy},
	} {
		if len(s.v) > MaxString {
			return fmt.Errorf("trace: %s name exceeds %d bytes", s.name, MaxString)
		}
	}
	if t.Meta.Memory < 0 || t.Meta.Memory > MaxDim {
		return fmt.Errorf("trace: memory %d outside [0, %d]", t.Meta.Memory, MaxDim)
	}
	if t.Meta.TrainEpisodes < 0 || t.Meta.TrainSteps < 0 {
		return fmt.Errorf("trace: negative training budget")
	}
	if t.NX < 1 || t.NX > MaxDim {
		return fmt.Errorf("trace: nx %d outside [1, %d]", t.NX, MaxDim)
	}
	if t.NU < 1 || t.NU > MaxDim {
		return fmt.Errorf("trace: nu %d outside [1, %d]", t.NU, MaxDim)
	}
	if len(t.Steps) > MaxSteps {
		return fmt.Errorf("trace: %d steps exceeds %d", len(t.Steps), MaxSteps)
	}
	if len(t.X0) != t.NX {
		return fmt.Errorf("trace: x0 has dim %d, want %d", len(t.X0), t.NX)
	}
	for i := range t.Steps {
		if err := CheckStep(&t.Steps[i], t.NX, t.NU); err != nil {
			return fmt.Errorf("trace: step %d: %w", i, err)
		}
	}
	if math.IsNaN(t.Energy) || math.IsInf(t.Energy, 0) {
		return fmt.Errorf("trace: non-finite energy")
	}
	return nil
}

// CheckStep checks one step against the nx×nu dimensions of its episode:
// level code in range and w, u, x of the right lengths. Traces, the
// recorder and journal step records share it.
func CheckStep(st *Step, nx, nu int) error {
	if st.Level > core.Unsafe {
		return fmt.Errorf("level code %d out of range", st.Level)
	}
	if len(st.W) != nx || len(st.X) != nx {
		return fmt.Errorf("w/x dims %d/%d, want %d", len(st.W), len(st.X), nx)
	}
	if len(st.U) != nu {
		return fmt.Errorf("u has dim %d, want %d", len(st.U), nu)
	}
	return nil
}

// States returns the state sequence X0, Steps[0].X, …, Steps[n-1].X as
// views into the trace (do not mutate).
func (t *Trace) States() []mat.Vec {
	out := make([]mat.Vec, 0, len(t.Steps)+1)
	out = append(out, mat.Vec(t.X0))
	for i := range t.Steps {
		out = append(out, t.Steps[i].X)
	}
	return out
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := *t
	out.X0 = append([]float64(nil), t.X0...)
	out.Steps = make([]Step, len(t.Steps))
	for i, st := range t.Steps {
		st.W = append([]float64(nil), st.W...)
		st.U = append([]float64(nil), st.U...)
		st.X = append([]float64(nil), st.X...)
		out.Steps[i] = st
	}
	return &out
}
