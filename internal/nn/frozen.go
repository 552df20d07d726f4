package nn

import (
	"fmt"
	"math"

	"oic/internal/mat"
)

// Frozen is the read-only inference form of an MLP, built once by
// Freeze. It stores each layer's weights column by column, so input j's
// contribution to every output is one contiguous slice, and its forward
// pass skips every input entry that is exactly zero: the ReLUs of a
// trained Q-network leave many. Every output bit equals MLP.Forward's
// (DESIGN.md §5.4). Nothing in it changes after Freeze, so any number of
// goroutines may run ForwardInto on one Frozen at once.
type Frozen struct {
	layers []frozenLayer
	width  int // the widest layer, input included: each half of the float scratch
	inputs int // the widest layer input: the keep list's length
}

type frozenLayer struct {
	cols  []float64 // in × out weights column-major: cols[j*out : (j+1)*out] is input j's column
	bias  []float64 // out entries
	force []uint8   // force[j] is 1 when column j holds a non-finite weight, which a zero input cannot skip
}

// Freeze returns the inference form of m's current parameters. Training
// m afterwards does not change it.
func (m *MLP) Freeze() *Frozen {
	f := &Frozen{}
	for l, w := range m.Weights {
		fl := frozenLayer{
			cols:  make([]float64, w.R*w.C),
			bias:  append([]float64(nil), m.Biases[l]...),
			force: make([]uint8, w.C),
		}
		for i := 0; i < w.R; i++ {
			for j, a := range w.Data[i*w.C : (i+1)*w.C] {
				fl.cols[j*w.R+i] = a
				if math.IsInf(a, 0) || math.IsNaN(a) {
					fl.force[j] = 1
				}
			}
		}
		f.layers = append(f.layers, fl)
		f.width = max(f.width, w.R, w.C)
		f.inputs = max(f.inputs, w.C)
	}
	return f
}

// ScratchLen returns the scratch ForwardInto needs: floats float64s (two
// buffers as wide as the widest layer or input) and keep int32s (the
// widest layer input).
func (f *Frozen) ScratchLen() (floats, keep int) { return 2 * f.width, f.inputs }

// ForwardInto evaluates the network on x without allocating, bit for bit
// as MLP.Forward does. scratch and keep must hold at least ScratchLen's
// counts, and x must not alias scratch; stale contents do not matter.
// The returned output is a view into scratch, valid until scratch is
// reused.
//
// Each layer runs on a keep list, the (index, value) pairs of its input
// that can change an output: every entry other than ±0, and every entry
// whose column holds a non-finite weight (Inf·0 is NaN). A hidden
// layer's list is built in the previous layer's bias-and-ReLU pass,
// which keeps an entry when !(v <= 0), a positive value or a NaN.
func (f *Frozen) ForwardInto(x, scratch mat.Vec, keep []int32) mat.Vec {
	floats, inputs := f.ScratchLen()
	if len(scratch) < floats || len(keep) < inputs {
		panic(fmt.Sprintf("nn: Frozen.ForwardInto: scratch %d and keep %d, want at least %d and %d",
			len(scratch), len(keep), floats, inputs))
	}
	first := f.layers[0].force
	if len(x) != len(first) {
		panic(fmt.Sprintf("nn: Frozen.ForwardInto: input length %d, want %d", len(x), len(first)))
	}
	bufs := [2]mat.Vec{scratch[:f.width], scratch[f.width : 2*f.width]}
	vals, n := bufs[1], 0
	for j, v := range x {
		keep[n], vals[n] = int32(j), v
		n += b2i(v != 0) | int(first[j])
	}
	last := len(f.layers) - 1
	for l := range last {
		acc := f.layers[l].product(bufs[l&1], keep[:n], vals[:n])
		bias := f.layers[l].bias[:len(acc)]
		// Bias, ReLU and the next layer's keep list in one branch-free
		// pass, compacted in place: entry i lands at n ≤ i after acc[i]
		// was read. The ReLU'd value is v or +0, by a mask on its bits.
		force := f.layers[l+1].force[:len(acc)]
		n = 0
		for i, s := range acc {
			v := s + bias[i]
			pos := b2i(!(v <= 0))
			keep[n], acc[n] = int32(i), math.Float64frombits(math.Float64bits(v)&-uint64(pos))
			n += pos | int(force[i])
		}
		vals = acc
	}
	out := f.layers[last].product(bufs[last&1], keep[:n], vals[:n])
	bias := f.layers[last].bias[:len(out)]
	for i, s := range out {
		out[i] = s + bias[i]
	}
	return out
}

// product writes W·h into the front of buf and returns it, h given by
// its keep list: the kept indices and their values.
func (ly *frozenLayer) product(buf []float64, keep []int32, vals []float64) []float64 {
	acc := buf[:len(ly.bias)]
	clear(acc)
	accumulate(acc, ly.cols, keep, vals)
	return acc
}

// accumulate adds c_j·h_j into acc for each kept (j, h_j) in keep and
// vals, in ascending j, four columns per pass over the outputs.
//
// Every output keeps mulVecRows's arithmetic on its row with the skipped
// terms left out: an accumulator started at +0.0 adds each kept term in
// column order, written s += c * h, so the compiler fuses (or does not
// fuse) it as it fuses the dense loop. A skipped term is W_ij·(±0) = ±0
// for a finite W_ij, and an accumulator that starts at +0.0 never
// becomes −0 in round-to-nearest, so adding ±0 would not change one of
// its bits: not a finite value, not ±Inf, not a NaN. Never reassociate
// these sums, split them, or call math.FMA.
func accumulate(acc, cols []float64, keep []int32, vals []float64) {
	out := len(acc)
	vals = vals[:len(keep)]
	k := 0
	for ; k+4 <= len(keep); k += 4 {
		o0, o1, o2, o3 := int(keep[k])*out, int(keep[k+1])*out, int(keep[k+2])*out, int(keep[k+3])*out
		c0, c1, c2, c3 := cols[o0:o0+out], cols[o1:o1+out], cols[o2:o2+out], cols[o3:o3+out]
		c0, c1, c2, c3 = c0[:len(acc)], c1[:len(acc)], c2[:len(acc)], c3[:len(acc)] // no bounds checks below
		h0, h1, h2, h3 := vals[k], vals[k+1], vals[k+2], vals[k+3]
		for i, s := range acc {
			s += c0[i] * h0
			s += c1[i] * h1
			s += c2[i] * h2
			s += c3[i] * h3
			acc[i] = s
		}
	}
	for ; k < len(keep); k++ {
		o := int(keep[k]) * out
		c := cols[o : o+out]
		c = c[:len(acc)]
		h := vals[k]
		for i, s := range acc {
			s += c[i] * h
			acc[i] = s
		}
	}
}

// b2i is 1 for true and 0 for false; the compiler makes it a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
