package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	v := Vec{1, -2, 3}
	u := Vec{4, 5, -6}
	if got := v.Add(u); !got.Equal(Vec{5, 3, -3}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(u); !got.Equal(Vec{-3, -7, 9}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Vec{2, -4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(u); got != 1*4+(-2)*5+3*(-6) {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Norm1(); got != 6 {
		t.Errorf("Norm1 = %v", got)
	}
	if got := v.NormInf(); got != 3 {
		t.Errorf("NormInf = %v", got)
	}
	if got := v.Norm2(); math.Abs(got-math.Sqrt(14)) > 1e-12 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

// TestBitsEqual pins exact IEEE-754 equality: it tells the zeros apart,
// holds a NaN equal to itself, and admits no rounding.
func TestBitsEqual(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b []float64
		want bool
	}{
		{nil, []float64{}, true},
		{[]float64{1, nan}, []float64{1, nan}, true},
		{[]float64{0}, []float64{math.Copysign(0, -1)}, false},
		{[]float64{0.3}, []float64{math.Nextafter(0.3, 1)}, false},
		{[]float64{1}, []float64{1, 2}, false},
	} {
		if got := BitsEqual(c.a, c.b); got != c.want {
			t.Errorf("BitsEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vec{1}.Add(Vec{1, 2})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 0) {
		t.Errorf("Mul = %v", got)
	}
}

func TestMatMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := Vec{1, 0, -1}
	if got := a.MulVec(v); !got.Equal(Vec{-2, -2}, 0) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if got := a.T(); !got.Equal(want, 0) {
		t.Errorf("T = %v", got)
	}
}

func TestIdentityAndDiag(t *testing.T) {
	if got := Identity(3).MulVec(Vec{1, 2, 3}); !got.Equal(Vec{1, 2, 3}, 0) {
		t.Errorf("Identity·v = %v", got)
	}
	d := Diag([]float64{2, 3})
	if got := d.MulVec(Vec{1, 1}); !got.Equal(Vec{2, 3}, 0) {
		t.Errorf("Diag·v = %v", got)
	}
}

func TestPow(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {0, 1}})
	p := Pow(a, 5)
	want := FromRows([][]float64{{1, 5}, {0, 1}})
	if !p.Equal(want, 1e-12) {
		t.Errorf("Pow = %v", p)
	}
	if !Pow(a, 0).Equal(Identity(2), 0) {
		t.Error("Pow(a,0) != I")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := Vec{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(Vec{2, 3, -1}, 1e-10) {
		t.Errorf("Solve = %v, want [2 3 -1]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Vec{1, 1}); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Mul(inv); !got.Equal(Identity(2), 1e-12) {
		t.Errorf("A·A⁻¹ = %v", got)
	}
}

// randomWellConditioned returns a random n×n matrix that is diagonally
// dominant, hence invertible.
func randomWellConditioned(rng *rand.Rand, n int) *Mat {
	a := New(n, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			a.Set(i, j, v)
			sum += math.Abs(v)
		}
		a.Set(i, i, sum+1+rng.Float64())
	}
	return a
}

func TestSolveRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(6)
		a := randomWellConditioned(rng, n)
		want := make(Vec, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(want, 1e-8) {
			t.Fatalf("trial %d: Solve mismatch: got %v want %v", trial, got, want)
		}
	}
}

func TestInversePowConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(4)
		a := randomWellConditioned(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Mul(inv).Equal(Identity(n), 1e-8) || !inv.Mul(a).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: inverse not two-sided", trial)
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a, b, c := randomDense(rng, n), randomDense(rng, n), randomDense(rng, n)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		a, b := randomDense(rng, n), randomDense(rng, n)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomDense(rng *rand.Rand, n int) *Mat {
	a := New(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// refMulVec is the plain one-row-at-a-time loop MulVec ran before its
// rows were blocked four to a pass, kept verbatim as the bit-exact oracle.
func refMulVec(m *Mat, v Vec) Vec {
	out := make(Vec, m.R)
	for i := 0; i < m.R; i++ {
		s := 0.0
		row := m.Data[i*m.C : (i+1)*m.C]
		v := v[:len(row)] // same length as row: no bounds check in the loop
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// kernelFloat draws entries where summation order decides the rounding:
// signed zeros, infinities, NaN, subnormals, and magnitudes from 1e-300
// to 1e300 mixed with ordinary values.
func kernelFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2))-0.5)
	case 1:
		return math.Inf(2*rng.Intn(2) - 1)
	case 2:
		return math.NaN()
	case 3:
		return math.Float64frombits(uint64(rng.Int63n(1<<52))) * float64(2*rng.Intn(2)-1) // subnormal
	case 4:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(601)-300))
	case 5:
		return (rng.Float64() - 0.5) * 1e300
	case 6:
		return (rng.Float64() - 0.5) * 1e-300
	default:
		return rng.NormFloat64()
	}
}

// TestMulVecBitIdentical pins the row-blocked kernel to the plain loop bit
// for bit, over every R mod 4 tail and widths up to 70: each output keeps
// its own accumulator and its column order, so no input can round
// differently.
func TestMulVecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 3000; trial++ {
		r, c := rng.Intn(10), rng.Intn(71)
		m := New(r, c)
		v := make(Vec, c)
		for i := range m.Data {
			m.Data[i] = kernelFloat(rng)
		}
		for j := range v {
			v[j] = kernelFloat(rng)
		}
		want := refMulVec(m, v)
		into := make(Vec, r)
		m.MulVecInto(into, v)
		for name, got := range map[string]Vec{"MulVec": m.MulVec(v), "MulVecInto": into} {
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d (%d×%d): %s row %d = %v (%#x), plain loop %v (%#x)",
						trial, r, c, name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}
