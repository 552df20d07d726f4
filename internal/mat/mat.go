package mat

import (
	"fmt"
	"strings"
)

// Mat is a dense row-major matrix with R rows and C columns.
type Mat struct {
	R, C int
	Data []float64 // len R*C, Data[i*C+j] = entry (i,j)
}

// New returns a zero R×C matrix.
func New(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: New(%d,%d): negative dimension", r, c))
	}
	return &Mat{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices; all rows must share one length.
func FromRows(rows [][]float64) *Mat {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows: row %d has %d entries, want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Mat {
	m := New(len(d), len(d))
	for i, x := range d {
		m.Data[i*len(d)+i] = x
	}
	return m
}

// At returns entry (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns entry (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Row returns a copy of row i as a Vec.
func (m *Mat) Row(i int) Vec {
	out := make(Vec, m.C)
	copy(out, m.Data[i*m.C:(i+1)*m.C])
	return out
}

// RowView returns row i as a Vec aliasing the matrix storage — no copy.
// Mutating the view mutates the matrix; use Row for an owned copy.
func (m *Mat) RowView(i int) Vec { return Vec(m.Data[i*m.C : (i+1)*m.C]) }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := New(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m.
func (m *Mat) T() *Mat {
	out := New(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Data[j*m.R+i] = m.Data[i*m.C+j]
		}
	}
	return out
}

// Add returns m + n.
func (m *Mat) Add(n *Mat) *Mat {
	m.mustSameShape(n, "Add")
	out := New(m.R, m.C)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + n.Data[i]
	}
	return out
}

// Sub returns m - n.
func (m *Mat) Sub(n *Mat) *Mat {
	m.mustSameShape(n, "Sub")
	out := New(m.R, m.C)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - n.Data[i]
	}
	return out
}

// Scale returns a*m.
func (m *Mat) Scale(a float64) *Mat {
	out := New(m.R, m.C)
	for i := range m.Data {
		out.Data[i] = a * m.Data[i]
	}
	return out
}

// Mul returns the matrix product m·n.
func (m *Mat) Mul(n *Mat) *Mat {
	if m.C != n.R {
		panic(fmt.Sprintf("mat: Mul: inner dimensions %d vs %d", m.C, n.R))
	}
	out := New(m.R, n.C)
	for i := 0; i < m.R; i++ {
		for k := 0; k < m.C; k++ {
			a := m.Data[i*m.C+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n.C; j++ {
				out.Data[i*n.C+j] += a * n.Data[k*n.C+j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Mat) MulVec(v Vec) Vec {
	if m.C != len(v) {
		panic(fmt.Sprintf("mat: MulVec: %d columns vs vector length %d", m.C, len(v)))
	}
	out := make(Vec, m.R)
	mulVecRows(out, m.Data, m.C, v)
	return out
}

// MulVecInto writes the matrix-vector product m·v into dst without
// allocating. dst must have length m.R and must not alias v.
func (m *Mat) MulVecInto(dst, v Vec) {
	if m.C != len(v) {
		panic(fmt.Sprintf("mat: MulVecInto: %d columns vs vector length %d", m.C, len(v)))
	}
	if len(dst) != m.R {
		panic(fmt.Sprintf("mat: MulVecInto: dst length %d, want %d rows", len(dst), m.R))
	}
	mulVecRows(dst, m.Data, m.C, v)
}

// mulVecRows writes dst[i] = Σ_j data[i*c+j]·v[j] for the len(dst) rows of
// a row-major matrix with c columns. Four rows share each pass over v,
// each in its own accumulator, so the four independent add chains overlap
// in the pipeline; a scalar loop takes the last len(dst) mod 4 rows.
//
// Every output keeps the plain loop's arithmetic exactly: its accumulator
// starts at 0.0 and adds a·v[j] in column order j = 0..c−1, written as
// s += a * x so the compiler fuses (or does not fuse) it the same way on
// every GOARCH. Never reassociate these sums, split them over j, or call
// math.FMA: the golden traces, artifacts and DQN training runs depend on
// every bit.
func mulVecRows(dst, data []float64, c int, v Vec) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := data[i*c : (i+1)*c]
		r1 := data[(i+1)*c : (i+2)*c]
		r2 := data[(i+2)*c : (i+3)*c]
		r3 := data[(i+3)*c : (i+4)*c]
		r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)] // no bounds checks below
		v := v[:len(r0)]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for j, a := range r0 {
			x := v[j]
			s0 += a * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		s := 0.0
		row := data[i*c : (i+1)*c]
		v := v[:len(row)] // same length as row: no bounds check in the loop
		for j, a := range row {
			s += a * v[j]
		}
		dst[i] = s
	}
}

// Pow returns m^k for k ≥ 0 (m must be square); Pow(m, 0) is the identity.
func Pow(m *Mat, k int) *Mat {
	if m.R != m.C {
		panic("mat: Pow: matrix not square")
	}
	if k < 0 {
		panic("mat: Pow: negative exponent")
	}
	out := Identity(m.R)
	base := m.Clone()
	for k > 0 {
		if k&1 == 1 {
			out = out.Mul(base)
		}
		base = base.Mul(base)
		k >>= 1
	}
	return out
}

// Equal reports whether m and n agree entrywise within tol.
func (m *Mat) Equal(n *Mat, tol float64) bool {
	if m.R != n.R || m.C != n.C {
		return false
	}
	for i := range m.Data {
		d := m.Data[i] - n.Data[i]
		if d > tol || d < -tol {
			return false
		}
	}
	return true
}

// String renders the matrix row by row.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.R; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(Vec(m.Data[i*m.C : (i+1)*m.C]).String())
	}
	return b.String()
}

func (m *Mat) mustSameShape(n *Mat, op string) {
	if m.R != n.R || m.C != n.C {
		panic(fmt.Sprintf("mat: %s: shape mismatch %dx%d vs %dx%d", op, m.R, m.C, n.R, n.C))
	}
}
