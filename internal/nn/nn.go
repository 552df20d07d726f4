// Package nn implements the small dense neural networks used by the deep
// reinforcement learning skipping policy: multi-layer perceptrons with ReLU
// hidden activations and linear outputs, trained with backpropagation and
// the Adam optimizer. Everything is float64. Training runs the dense,
// row-major pass, whose weights change every Adam step; a trained policy
// answers with Frozen, a read-only column-major copy whose pass skips the
// zeros the ReLUs leave, bit for bit as the dense pass (DESIGN.md §5.4).
package nn

import (
	"math"
	"math/rand"

	"oic/internal/mat"
)

// MLP is a fully connected network: sizes[0] inputs, sizes[len-1] outputs,
// ReLU after every hidden layer, linear output layer.
type MLP struct {
	Sizes   []int
	Weights []*mat.Mat // Weights[l] is sizes[l+1] × sizes[l]
	Biases  []mat.Vec  // Biases[l] has sizes[l+1] entries
}

// NewMLP builds a network with He-initialized weights drawn from rng.
func NewMLP(sizes []int, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP: need at least input and output sizes")
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		w := mat.New(sizes[l+1], sizes[l])
		std := math.Sqrt(2 / float64(sizes[l]))
		for i := range w.Data {
			w.Data[i] = rng.NormFloat64() * std
		}
		m.Weights = append(m.Weights, w)
		m.Biases = append(m.Biases, make(mat.Vec, sizes[l+1]))
	}
	return m
}

// NumLayers returns the number of weight layers.
func (m *MLP) NumLayers() int { return len(m.Weights) }

// Forward evaluates the network on x, allocating each layer's output.
// It is the dense pass training runs, and the reference Frozen is held
// to bit for bit.
func (m *MLP) Forward(x mat.Vec) mat.Vec {
	_, out := m.forwardCache(x)
	return out
}

// layerInto writes layer l's output on input h into out: W·h + b, then
// ReLU on hidden layers. The bias is added after the product and a
// negative sum clamps to zero (a NaN passes through), in that order.
func (m *MLP) layerInto(l int, out, h mat.Vec) {
	m.Weights[l].MulVecInto(out, h)
	b := m.Biases[l][:len(out)]
	relu := l < m.NumLayers()-1
	for i, v := range out {
		v += b[i]
		if relu && v < 0 {
			v = 0
		}
		out[i] = v
	}
}

// forwardCache evaluates the network and returns the pre-activation inputs
// of every layer (acts[0] = x, acts[l] = input to layer l) plus the output.
func (m *MLP) forwardCache(x mat.Vec) (acts []mat.Vec, out mat.Vec) {
	acts = make([]mat.Vec, m.NumLayers())
	h := x
	for l, w := range m.Weights {
		acts[l] = h
		out := make(mat.Vec, w.R)
		m.layerInto(l, out, h)
		h = out
	}
	return acts, h
}

// Grads accumulates parameter gradients with the same shapes as the model.
type Grads struct {
	Weights []*mat.Mat
	Biases  []mat.Vec
}

// NewGrads returns zeroed gradients shaped like m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for l := 0; l < m.NumLayers(); l++ {
		g.Weights = append(g.Weights, mat.New(m.Weights[l].R, m.Weights[l].C))
		g.Biases = append(g.Biases, make(mat.Vec, len(m.Biases[l])))
	}
	return g
}

// Zero resets all gradient entries.
func (g *Grads) Zero() {
	for l := range g.Weights {
		for i := range g.Weights[l].Data {
			g.Weights[l].Data[i] = 0
		}
		for i := range g.Biases[l] {
			g.Biases[l][i] = 0
		}
	}
}

// Accumulate backpropagates dLoss/dOut for input x and adds the parameter
// gradients into g.
func (m *MLP) Accumulate(g *Grads, x, gradOut mat.Vec) {
	acts, _ := m.forwardCache(x)
	// Recompute post-activation outputs per layer for the backward pass.
	// acts[l] is the input to layer l, which is already post-activation.
	delta := gradOut.Clone()
	for l := m.NumLayers() - 1; l >= 0; l-- {
		in := acts[l]
		w := m.Weights[l]
		gw := g.Weights[l]
		for i := 0; i < w.R; i++ {
			di := delta[i]
			if di == 0 {
				continue
			}
			g.Biases[l][i] += di
			row := gw.Data[i*gw.C : (i+1)*gw.C]
			for j := range in {
				row[j] += di * in[j]
			}
		}
		if l == 0 {
			break
		}
		// delta for the previous layer: Wᵀ·delta gated by ReLU(in > 0).
		prev := make(mat.Vec, w.C)
		for j := 0; j < w.C; j++ {
			s := 0.0
			for i := 0; i < w.R; i++ {
				s += w.At(i, j) * delta[i]
			}
			prev[j] = s
		}
		for j := range prev {
			if in[j] <= 0 {
				prev[j] = 0
			}
		}
		delta = prev
	}
}

// Clone returns a deep copy (used for DQN target networks).
func (m *MLP) Clone() *MLP {
	out := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	for l := 0; l < m.NumLayers(); l++ {
		out.Weights = append(out.Weights, m.Weights[l].Clone())
		out.Biases = append(out.Biases, m.Biases[l].Clone())
	}
	return out
}

// CopyFrom overwrites this network's parameters with src's.
func (m *MLP) CopyFrom(src *MLP) {
	if len(m.Weights) != len(src.Weights) {
		panic("nn: CopyFrom: layer count mismatch")
	}
	for l := range m.Weights {
		copy(m.Weights[l].Data, src.Weights[l].Data)
		copy(m.Biases[l], src.Biases[l])
	}
}

// Adam is the Adam optimizer (Kingma & Ba) over an MLP's parameters.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	t  int
	mw []*mat.Mat
	vw []*mat.Mat
	mb []mat.Vec
	vb []mat.Vec
}

// NewAdam returns an optimizer for model with the given learning rate and
// standard moment defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(model *MLP, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for l := 0; l < model.NumLayers(); l++ {
		a.mw = append(a.mw, mat.New(model.Weights[l].R, model.Weights[l].C))
		a.vw = append(a.vw, mat.New(model.Weights[l].R, model.Weights[l].C))
		a.mb = append(a.mb, make(mat.Vec, len(model.Biases[l])))
		a.vb = append(a.vb, make(mat.Vec, len(model.Biases[l])))
	}
	return a
}

// Step applies one Adam update of model parameters along -grads.
func (a *Adam) Step(model *MLP, grads *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range model.Weights {
		wd := model.Weights[l].Data
		gd := grads.Weights[l].Data
		md := a.mw[l].Data
		vd := a.vw[l].Data
		for i := range wd {
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*gd[i]
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*gd[i]*gd[i]
			wd[i] -= a.LR * (md[i] / c1) / (math.Sqrt(vd[i]/c2) + a.Eps)
		}
		bb := model.Biases[l]
		gb := grads.Biases[l]
		mb := a.mb[l]
		vb := a.vb[l]
		for i := range bb {
			mb[i] = a.Beta1*mb[i] + (1-a.Beta1)*gb[i]
			vb[i] = a.Beta2*vb[i] + (1-a.Beta2)*gb[i]*gb[i]
			bb[i] -= a.LR * (mb[i] / c1) / (math.Sqrt(vb[i]/c2) + a.Eps)
		}
	}
}
