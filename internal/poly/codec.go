package poly

import (
	"encoding/binary"
	"fmt"
	"math"

	"oic/internal/frame"
	"oic/internal/mat"
)

// Binary codec helpers for persisting polytopes inside larger wire
// formats (internal/artifact), on the internal/frame conventions. The
// layout is fixed little-endian:
//
//	u16 rows · u16 cols · f64×rows×cols A (row-major) · f64×rows B
//
// Float64s are serialized as raw IEEE-754 bits, so Encode∘Decode is the
// identity on the float data (including NaN payloads) and a decoded
// polytope is bit-identical to the encoded one.

// EncodedBinarySize returns the exact number of bytes AppendBinary emits.
func EncodedBinarySize(p *Polytope) int {
	return 2 + 2 + 8*p.A.R*p.A.C + 8*p.A.R
}

// AppendBinary appends p's binary form to buf and returns the extended
// slice. Dimensions beyond uint16 cannot be represented and panic; the
// polytopes in this codebase are orders of magnitude smaller.
func AppendBinary(buf []byte, p *Polytope) []byte {
	if p.A.R > math.MaxUint16 || p.A.C > math.MaxUint16 {
		panic(fmt.Sprintf("poly: AppendBinary: %d×%d exceeds uint16 dimensions", p.A.R, p.A.C))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.A.R))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(p.A.C))
	buf = frame.AppendF64s(buf, p.A.Data)
	return frame.AppendF64s(buf, p.B)
}

// ReadBinary reads one polytope written by AppendBinary. Rows and
// columns must lie in [1, maxRows] and [1, maxCols], and the whole
// polytope's length is checked against the remaining input before any
// allocation, so a hostile prefix cannot make the decoder allocate more
// than the input could justify. Failures stick on r and return nil.
func ReadBinary(r *frame.Reader, maxRows, maxCols int) *Polytope {
	rows, cols := int(r.U16()), int(r.U16())
	if rows < 1 || rows > maxRows || cols < 1 || cols > maxCols {
		r.Fail("polytope %d×%d outside [1, %d]×[1, %d]", rows, cols, maxRows, maxCols)
	}
	if !r.Need(8 * rows * (cols + 1)) {
		return nil
	}
	a := &mat.Mat{R: rows, C: cols, Data: r.F64s(rows * cols)}
	return New(a, r.F64s(rows))
}
