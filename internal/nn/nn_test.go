package nn

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/mat"
)

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{3, 8, 2}, rng)
	out := m.Forward(mat.Vec{0.1, -0.2, 0.5})
	if len(out) != 2 {
		t.Fatalf("output dim = %d", len(out))
	}
}

func TestForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP([]int{2, 4, 1}, rng)
	x := mat.Vec{0.3, -0.7}
	a := m.Forward(x)
	b := m.Forward(x)
	if !a.Equal(b, 0) {
		t.Error("forward pass not deterministic")
	}
}

func TestReLUActivation(t *testing.T) {
	// Hand-built network: single hidden unit with ReLU.
	m := &MLP{
		Sizes:   []int{1, 1, 1},
		Weights: []*mat.Mat{mat.FromRows([][]float64{{1}}), mat.FromRows([][]float64{{1}})},
		Biases:  []mat.Vec{{0}, {0}},
	}
	if got := m.Forward(mat.Vec{2})[0]; got != 2 {
		t.Errorf("f(2) = %v, want 2", got)
	}
	if got := m.Forward(mat.Vec{-2})[0]; got != 0 {
		t.Errorf("f(-2) = %v, want 0 (ReLU)", got)
	}
}

// TestGradientCheck verifies backprop against central finite differences on
// a scalar loss L = Σ out².
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{3, 5, 4, 2}, rng)
	x := mat.Vec{0.4, -0.3, 0.9}

	loss := func() float64 {
		out := m.Forward(x)
		s := 0.0
		for _, v := range out {
			s += v * v
		}
		return s
	}
	// Analytic gradient: dL/dout = 2·out.
	g := NewGrads(m)
	out := m.Forward(x)
	m.Accumulate(g, x, out.Scale(2))

	const h = 1e-6
	check := func(param *float64, analytic float64, where string) {
		orig := *param
		*param = orig + h
		lp := loss()
		*param = orig - h
		lm := loss()
		*param = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("%s: numeric %v vs analytic %v", where, numeric, analytic)
		}
	}
	for l := range m.Weights {
		for i := range m.Weights[l].Data {
			if i%3 != 0 { // spot-check a third of the entries
				continue
			}
			check(&m.Weights[l].Data[i], g.Weights[l].Data[i], "weight")
		}
		for i := range m.Biases[l] {
			check(&m.Biases[l][i], g.Biases[l][i], "bias")
		}
	}
}

func TestAdamConvergesOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP([]int{1, 16, 1}, rng)
	opt := NewAdam(m, 0.01)
	g := NewGrads(m)

	target := func(x float64) float64 { return math.Sin(3 * x) }
	sample := func() (mat.Vec, float64) {
		x := rng.Float64()*2 - 1
		return mat.Vec{x}, target(x)
	}
	mse := func() float64 {
		s := 0.0
		for i := 0; i < 200; i++ {
			x := -1 + 2*float64(i)/199
			d := m.Forward(mat.Vec{x})[0] - target(x)
			s += d * d
		}
		return s / 200
	}

	before := mse()
	for step := 0; step < 3000; step++ {
		g.Zero()
		for b := 0; b < 16; b++ {
			x, y := sample()
			out := m.Forward(x)
			m.Accumulate(g, x, mat.Vec{2 * (out[0] - y) / 16})
		}
		opt.Step(m, g)
	}
	after := mse()
	if after > before/10 || after > 0.05 {
		t.Errorf("Adam failed to fit: MSE %v -> %v", before, after)
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{2, 3, 1}, rng)
	c := m.Clone()
	x := mat.Vec{0.5, -0.5}
	if !m.Forward(x).Equal(c.Forward(x), 0) {
		t.Fatal("clone differs")
	}
	// Mutating the clone must not affect the original.
	c.Weights[0].Data[0] += 1
	if m.Forward(x).Equal(c.Forward(x), 1e-12) {
		t.Error("clone aliases original parameters")
	}
	m.CopyFrom(c)
	if !m.Forward(x).Equal(c.Forward(x), 0) {
		t.Error("CopyFrom did not synchronize parameters")
	}
}

// refForward is the forward pass as it first ran, kept as the bit-exact
// oracle: a fresh product vector per layer summed one row at a time
// (mat.MulVec's plain loop, inlined), the bias added by Vec.Add, and the
// ReLU clamp applied in place.
func refForward(m *MLP, x mat.Vec) mat.Vec {
	h := x
	for l := 0; l < m.NumLayers(); l++ {
		w := m.Weights[l]
		prod := make(mat.Vec, w.R)
		for i := 0; i < w.R; i++ {
			s := 0.0
			for j, a := range w.Data[i*w.C : (i+1)*w.C] {
				s += a * h[j]
			}
			prod[i] = s
		}
		h = prod.Add(m.Biases[l])
		if l < m.NumLayers()-1 {
			for i, v := range h {
				if v < 0 {
					h[i] = 0
				}
			}
		}
	}
	return h
}

// TestForwardIntoBitIdentical pins the frozen pass (Frozen.ForwardInto)
// and the dense pass (MLP.Forward) to the old allocating pass bit for
// bit, on random nets with layer widths 1..130 and inputs that include
// signed zeros, infinities, NaN and extreme magnitudes; a NaN output
// matches as a NaN (sameOutputs).
func TestForwardIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e300}
	var scratch mat.Vec
	var keep []int32
	for trial := 0; trial < 300; trial++ {
		sizes := make([]int, 2+rng.Intn(3))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(130)
		}
		m := NewMLP(sizes, rng)
		for l := range m.Biases {
			for i := range m.Biases[l] {
				m.Biases[l][i] = rng.NormFloat64()
			}
		}
		x := make(mat.Vec, sizes[0])
		for i := range x {
			x[i] = rng.NormFloat64() * 3
			if rng.Intn(8) == 0 {
				x[i] = special[rng.Intn(len(special))]
			}
		}
		f := m.Freeze()
		floats, inputs := f.ScratchLen()
		if n := floats + rng.Intn(3); len(scratch) < n {
			scratch = make(mat.Vec, n) // reused across nets: stale contents must not matter
		}
		if len(keep) < inputs {
			keep = make([]int32, inputs)
		}
		want := refForward(m, x)
		for name, got := range map[string]mat.Vec{
			"Frozen.ForwardInto": f.ForwardInto(x, scratch, keep),
			"Forward":            m.Forward(x),
		} {
			if !sameOutputs(got, want) {
				t.Fatalf("trial %d %v: %s = %v, old pass %v", trial, sizes, name, got, want)
			}
		}
	}
}

// TestForwardIntoScratch pins the frozen pass's buffer contract: zero
// allocations, and a panic (not a silent overrun) on a short buffer or a
// wrong-length input.
func TestForwardIntoScratch(t *testing.T) {
	f := NewMLP([]int{4, 64, 64, 2}, rand.New(rand.NewSource(1))).Freeze()
	floats, inputs := f.ScratchLen()
	if floats != 128 || inputs != 64 {
		t.Fatalf("ScratchLen = %d, %d, want 128, 64", floats, inputs)
	}
	x := mat.Vec{0.1, -0.2, 0.3, -0.4}
	scratch, keep := make(mat.Vec, floats), make([]int32, inputs)
	if allocs := testing.AllocsPerRun(100, func() { f.ForwardInto(x, scratch, keep) }); allocs != 0 {
		t.Errorf("ForwardInto allocates %v times per call, want 0", allocs)
	}
	for name, call := range map[string]func(){
		"short scratch": func() { f.ForwardInto(x, scratch[:floats-1], keep) },
		"short keep":    func() { f.ForwardInto(x, scratch, keep[:inputs-1]) },
		"short input":   func() { f.ForwardInto(x[:3], scratch, keep) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ForwardInto with a %s did not panic", name)
				}
			}()
			call()
		}()
	}
}
