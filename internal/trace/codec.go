package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"oic/internal/core"
	"oic/internal/frame"
)

// Binary wire layout (internal/frame conventions: all integers
// little-endian, floats IEEE-754 bits, str = u16 length + bytes):
//
//	magic   [4]byte  "OICT"
//	u16     version
//	        fingerprint block: u16 nx, u16 nu, u16 memory,
//	        u32 train episodes, u32 train steps, u64 train seed,
//	        str plant, str scenario, str policy
//	u32     step count
//	f64     energy
//	f64×nx  x0
//	steps:  u8 flags (bit0 ran, bit1 forced, bits 2–3 level, rest zero)
//	        f64×nx w, f64×nu u, f64×nx x
//	u32     CRC-32 (IEEE) of every preceding byte
//
// The layout has no optional fields and no padding, so every valid trace
// has exactly one encoding: Encode(Decode(b)) == b (fuzz-pinned), which
// makes byte equality of encoded traces a sound conformance check.

const (
	magic      = "OICT"
	flagRan    = 1 << 0
	flagForced = 1 << 1
	levelShift = 2
	levelMask  = 0b11
	flagKnown  = flagRan | flagForced | levelMask<<levelShift
)

// stepSize returns the encoded size of one step for the given dimensions.
func stepSize(nx, nu int) int { return 1 + 8*(2*nx+nu) }

// stepFlags packs a step's decision and level into its flag byte.
func stepFlags(st *Step) byte {
	f := (byte(st.Level) & levelMask) << levelShift
	if st.Ran {
		f |= flagRan
	}
	if st.Forced {
		f |= flagForced
	}
	return f
}

// stepFromFlags unpacks a flag byte into a step without vectors.
func stepFromFlags(f byte) Step {
	return Step{
		Ran:    f&flagRan != 0,
		Forced: f&flagForced != 0,
		Level:  core.Level(f>>levelShift) & levelMask,
	}
}

// AppendStep appends a step's wire form — the flag byte, then w, u and
// x. OICT steps and OICJ step records share this encoding, so journal
// recovery and trace export read one format.
func AppendStep(dst []byte, st *Step) []byte {
	dst = append(dst, stepFlags(st))
	dst = frame.AppendF64s(dst, st.W)
	dst = frame.AppendF64s(dst, st.U)
	return frame.AppendF64s(dst, st.X)
}

// ReadStep reads one nx×nu step written by AppendStep, rejecting unknown
// flag bits; failures stick on r. The step's w, u and x are capped views
// of one allocation.
func ReadStep(r *frame.Reader, nx, nu int) Step {
	f := r.U8()
	if f&^byte(flagKnown) != 0 {
		r.Fail("unknown step flag bits 0x%02x", f)
	}
	st := stepFromFlags(f)
	if v := r.F64s(2*nx + nu); v != nil {
		st.W, st.U, st.X = v[:nx:nx], v[nx:nx+nu:nx+nu], v[nx+nu:]
	}
	return st
}

// EncodedSize returns the exact byte length Encode will produce.
func (t *Trace) EncodedSize() int {
	return 4 + 2 + frame.MetaSize(&t.Meta) + 4 + 8 + 8*t.NX + len(t.Steps)*stepSize(t.NX, t.NU) + 4
}

// Encode serializes the trace into the canonical binary form. The trace
// must be valid (Validate), or an error is returned.
func Encode(t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, t.EncodedSize())
	buf = frame.AppendHeader(buf, magic, t.Version)
	buf = frame.AppendMeta(buf, t.NX, t.NU, &t.Meta)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Steps)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Energy))
	buf = frame.AppendF64s(buf, t.X0)
	for i := range t.Steps {
		buf = AppendStep(buf, &t.Steps[i])
	}
	return frame.Seal(buf, 0), nil
}

// Decode parses a canonical binary trace. It is strict: unknown versions,
// out-of-range dimensions, unknown flag bits, length mismatches, trailing
// bytes, and checksum failures are all rejected, and no allocation happens
// before the header's implied size has been checked against the input
// length — a hostile header cannot make Decode allocate more than the
// input's own size.
func Decode(b []byte) (*Trace, error) {
	r := frame.NewReader("trace", b)
	if err := r.Header(magic, Version); err != nil {
		return nil, err
	}
	t := &Trace{Version: Version}
	t.NX, t.NU, t.Meta = r.Meta()
	nsteps := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nsteps > MaxSteps {
		return nil, fmt.Errorf("trace: %d steps exceeds %d", nsteps, MaxSteps)
	}
	if t.NX < 1 || t.NX > MaxDim || t.NU < 1 || t.NU > MaxDim {
		return nil, fmt.Errorf("trace: dimensions %d×%d outside [1, %d]", t.NX, t.NU, MaxDim)
	}
	// The header fixes the remaining length exactly; reject before
	// allocating step storage.
	if want := 8 + 8*t.NX + nsteps*stepSize(t.NX, t.NU) + 4; r.Len() != want {
		return nil, fmt.Errorf("trace: body length %d does not match header (want %d)", r.Len(), want)
	}
	t.Energy = r.F64()
	t.X0 = r.F64s(t.NX)
	t.Steps = make([]Step, nsteps)
	for i := range t.Steps {
		t.Steps[i] = ReadStep(r, t.NX, t.NU)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := frame.Verify("trace", b); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
