package nn

import (
	"math"
	"math/rand"
	"testing"

	"oic/internal/mat"
)

var negZero = math.Copysign(0, -1)

// sameOutputs reports whether got matches want bit for bit, a NaN
// matching any NaN: which payload a NaN+NaN add keeps follows the
// operand order the compiler gives that add (DESIGN.md §5.4).
func sameOutputs(got, want mat.Vec) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.IsNaN(want[i]) {
			if !math.IsNaN(got[i]) {
				return false
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// frozenForward runs f on x in freshly allocated scratch.
func frozenForward(f *Frozen, x mat.Vec) mat.Vec {
	floats, inputs := f.ScratchLen()
	return f.ForwardInto(x, make(mat.Vec, floats), make([]int32, inputs))
}

// TestFrozenEdgeCases pins the three rules that make skipping exact on
// hand-built nets, each against the dense pass:
//   - an accumulator starts at +0.0, so an output with nothing kept, or
//     with only −0 terms, reads +0 (before a −0 bias too);
//   - a column holding a non-finite weight is never skipped, since its
//     Inf·0 or NaN·0 is NaN, in the first layer and in a hidden one;
//   - kept terms add in ascending column order, which rounding shows
//     where 1e16 + 1 − 1e16 and 1e16 − 1e16 + 1 differ.
func TestFrozenEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	net := func(w0 [][]float64, b0 []float64, w1 [][]float64, b1 []float64) *MLP {
		return &MLP{
			Sizes:   []int{len(w0[0]), len(w0), len(w1)},
			Weights: []*mat.Mat{mat.FromRows(w0), mat.FromRows(w1)},
			Biases:  []mat.Vec{b0, b1},
		}
	}
	cases := []struct {
		name string
		m    *MLP
		x    mat.Vec
		want mat.Vec // the dense pass must read this too
	}{
		{
			name: "nothing kept, −0 biases",
			m:    net([][]float64{{1, 2}, {3, 4}}, mat.Vec{negZero, negZero}, [][]float64{{1, 1}, {-1, 1}}, mat.Vec{negZero, negZero}),
			x:    mat.Vec{0, negZero},
			want: mat.Vec{0, 0},
		},
		{
			name: "only −0 terms",
			m:    net([][]float64{{1}, {1}}, mat.Vec{1, 1}, [][]float64{{negZero, negZero}, {negZero, 0}}, mat.Vec{negZero, negZero}),
			x:    mat.Vec{1},
			want: mat.Vec{0, 0},
		},
		{
			name: "Inf column, zero input",
			m:    net([][]float64{{inf, 1}, {1, 1}}, mat.Vec{0, 0}, [][]float64{{1, 1}, {1, 0}}, mat.Vec{0, 0}),
			x:    mat.Vec{0, 1},
			want: mat.Vec{nan, nan},
		},
		{
			name: "NaN column, zero activation",
			m:    net([][]float64{{-1}, {1}}, mat.Vec{0, 0}, [][]float64{{nan, 1}, {1, 1}}, mat.Vec{0, 0}),
			x:    mat.Vec{1},
			want: mat.Vec{nan, 1},
		},
		{
			name: "ascending column order",
			m:    net([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, mat.Vec{0, 0, 0}, [][]float64{{1e16, 1, -1e16}, {1e16, -1e16, 1}}, mat.Vec{0, 0}),
			x:    mat.Vec{1, 1, 1},
			want: mat.Vec{0, 1},
		},
	}
	for _, tc := range cases {
		if dense := tc.m.Forward(tc.x); !sameOutputs(dense, tc.want) {
			t.Fatalf("%s: the dense pass reads %v, the case expects %v", tc.name, dense, tc.want)
		}
		if got := frozenForward(tc.m.Freeze(), tc.x); !sameOutputs(got, tc.want) {
			t.Errorf("%s: frozen pass %v, dense pass %v", tc.name, got, tc.want)
		}
	}
}

// TestFreezeCopies: a frozen net keeps the parameters it was frozen with
// while the MLP trains on.
func TestFreezeCopies(t *testing.T) {
	m := NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(7)))
	x := mat.Vec{0.5, -1, 2}
	f := m.Freeze()
	want := m.Forward(x)
	m.Weights[0].Data[0] += 1
	m.Biases[1][0] += 1
	if got := frozenForward(f, x); !mat.BitsEqual(got, want) {
		t.Errorf("frozen pass moved with the MLP: %v, want %v", got, want)
	}
}

// randomNet builds a net for the frozen pass's differential checks: 1 to
// 4 weight layers with widths 1..130. A column is random, all ±0, or
// tiny (its products underflow); one layer in four also plants a ±Inf or
// NaN weight in one or two columns. A layer's biases are random, all ±0,
// all −100 (every ReLU output zero) or all +100 (every one positive).
func randomNet(rng *rand.Rand) *MLP {
	sizes := make([]int, 2+rng.Intn(4))
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(130)
	}
	m := NewMLP(sizes, rng)
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for l, w := range m.Weights {
		for j := 0; j < w.C; j++ {
			kind := rng.Intn(8)
			for i := 0; i < w.R; i++ {
				switch kind {
				case 0:
					w.Set(i, j, pick(rng, 0, negZero))
				case 1:
					w.Set(i, j, w.At(i, j)*1e-300)
				}
			}
		}
		if rng.Intn(4) == 0 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				w.Set(rng.Intn(w.R), rng.Intn(w.C), pick(rng, nonFinite...))
			}
		}
		b := m.Biases[l]
		kind := rng.Intn(5)
		for i := range b {
			switch kind {
			case 0:
				b[i] = pick(rng, 0, negZero)
			case 1:
				b[i] = -100
			case 2:
				b[i] = 100
			default:
				b[i] = rng.NormFloat64()
			}
		}
	}
	return m
}

// randomInput draws an input of n entries: random, mostly zeros of both
// signs, or random with some entries drawn from the finite specials
// (signed zeros, subnormals, ±1e300) or from every special (±Inf and NaN
// too).
func randomInput(rng *rand.Rand, n int) mat.Vec {
	finite := []float64{0, negZero, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300}
	special := append([]float64{math.Inf(1), math.Inf(-1), math.NaN()}, finite...)
	mode := rng.Intn(4)
	x := make(mat.Vec, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 3
		switch {
		case mode == 1 && rng.Intn(4) > 0:
			x[i] = pick(rng, 0, negZero)
		case mode == 2 && rng.Intn(4) == 0:
			x[i] = pick(rng, finite...)
		case mode == 3 && rng.Intn(16) == 0:
			x[i] = pick(rng, special...)
		}
	}
	return x
}

func pick(rng *rand.Rand, vs ...float64) float64 { return vs[rng.Intn(len(vs))] }

// FuzzFrozenForward holds the frozen pass to the dense pass on random
// nets and inputs (randomNet, randomInput): every output that is not a
// NaN must agree bit for bit, and a NaN must meet a NaN. Each input
// seeds one net and runs it on eight inputs through one reused scratch.
func FuzzFrozenForward(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := randomNet(rng)
		fr := m.Freeze()
		floats, inputs := fr.ScratchLen()
		scratch, keep := make(mat.Vec, floats), make([]int32, inputs)
		for k := 0; k < 8; k++ {
			x := randomInput(rng, m.Sizes[0])
			want := m.Forward(x)
			if got := fr.ForwardInto(x, scratch, keep); !sameOutputs(got, want) {
				t.Fatalf("sizes %v, x %v: frozen pass %v, dense pass %v", m.Sizes, x, got, want)
			}
		}
	})
}
