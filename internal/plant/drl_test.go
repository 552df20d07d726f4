package plant

import (
	"math/rand"
	"testing"

	"oic/internal/mat"
	"oic/internal/nn"
)

// refEncode is Encode as it ran before EncodeInto, kept verbatim as the
// bit-exact oracle.
func refEncode(e *Encoder, x mat.Vec, wRecent []mat.Vec) mat.Vec {
	out := make(mat.Vec, 0, len(x)+len(wRecent)*len(e.wScale))
	for i, xi := range x {
		out = append(out, (xi-e.xCenter[i])/e.xScale[i])
	}
	for _, w := range wRecent {
		for i, ws := range e.wScale {
			out = append(out, w[i]/ws)
		}
	}
	return out
}

// TestDecideMatchesAllocatingPipeline pins the stack-scratch Decide,
// which runs the frozen pass, to the dense pipeline Forward(Encode(x, w)),
// on random nets with layer widths 1..130: narrow nets run in the stack
// arrays, wide ones (and long disturbance memories) take the heap
// fallback. EncodeInto is held to the old Encode bit for bit on the way.
func TestDecideMatchesAllocatingPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var stack, heap int
	for trial := 0; trial < 400; trial++ {
		nx, nw, memory := 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(12)
		enc := FixedEncoder(make(mat.Vec, nx), make(mat.Vec, nx), make(mat.Vec, nw))
		for i := 0; i < nx; i++ {
			enc.xCenter[i], enc.xScale[i] = rng.NormFloat64(), 0.1+rng.Float64()
		}
		for i := range enc.wScale {
			enc.wScale[i] = 0.1 + rng.Float64()
		}
		sizes := []int{enc.StateDim(memory)}
		for h := rng.Intn(3); h >= 0; h-- {
			sizes = append(sizes, 1+rng.Intn(130))
		}
		sizes = append(sizes, 2)
		net := nn.NewMLP(sizes, rng)
		p := newTrainedPolicy(net, enc, memory)

		x := make(mat.Vec, nx)
		for i := range x {
			x[i] = rng.NormFloat64() * 2
		}
		ws := make([]mat.Vec, memory)
		for k := range ws {
			ws[k] = make(mat.Vec, nw)
			for i := range ws[k] {
				ws[k][i] = rng.NormFloat64()
			}
		}
		s := refEncode(enc, x, ws)
		buf := make(mat.Vec, len(s)+3)
		if got := enc.EncodeInto(buf, x, ws); !mat.BitsEqual(got, s) {
			t.Fatalf("trial %d: EncodeInto = %v, old Encode %v", trial, got, s)
		}
		if !mat.BitsEqual(enc.Encode(x, ws), s) {
			t.Fatalf("trial %d: Encode diverged from the old Encode", trial)
		}
		q := net.Forward(s)
		if got, want := p.Decide(0, x, ws), q[1] > q[0]; got != want {
			t.Fatalf("trial %d %v: Decide = %v, Forward(Encode) says %v (q=%v)", trial, sizes, got, want, q)
		}
		if floats, inputs := p.frozen.ScratchLen(); len(s)+floats > decideScratch || inputs > decideKeep {
			heap++
		} else {
			stack++
		}
	}
	if stack == 0 || heap == 0 {
		t.Fatalf("trials covered %d stack-scratch and %d heap-fallback decides; want both", stack, heap)
	}
}

// TestEncodeIntoZeroAllocs pins the encoder half of the decide lane at
// zero allocations (pkg/oic pins the golden policy's whole Decide).
func TestEncodeIntoZeroAllocs(t *testing.T) {
	enc := FixedEncoder(mat.Vec{20, 0}, mat.Vec{5, 1}, mat.Vec{1, 1})
	x, ws := mat.Vec{21, 0.5}, []mat.Vec{{0.3, -0.1}}
	dst := make(mat.Vec, enc.StateDim(1))
	if allocs := testing.AllocsPerRun(200, func() { enc.EncodeInto(dst, x, ws) }); allocs != 0 {
		t.Errorf("EncodeInto allocates %v times per call, want 0", allocs)
	}
}
