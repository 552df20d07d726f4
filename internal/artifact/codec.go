package artifact

import (
	"encoding/binary"
	"fmt"

	"oic/internal/frame"
	"oic/internal/poly"
)

// Binary wire layout (internal/frame conventions: all integers
// little-endian, floats IEEE-754 bits, str = u16 length + bytes):
//
//	magic   [4]byte  "OICA"
//	u16     version
//	        fingerprint block: u16 nx, u16 nu, u16 memory (canonical
//	        config value; 0 = default), u32 train episodes,
//	        u32 train steps, u64 train seed, str plant, str scenario,
//	        str policy
//	poly    X, XI, X′ (each: u16 rows, u16 cols, f64×R×C A row-major, f64×R B)
//	u16     skip-chain length m, then m polytopes S₁…S_m
//	u8      policy kind (0 = none, 1 = snapshot); kind 1 adds:
//	        str label, u16 memory,
//	        u16 layer-size count, u16 per size,
//	        per layer: f64×(r·c) weights then f64×r biases,
//	        u16 state-bound length, f64s xCenter, f64s xScale,
//	        u16 disturbance-bound length, f64s wScale
//	u32     train stats episodes, u32 total steps,
//	f64     mean reward, f64 final epsilon, f64 final loss EMA,
//	u32     reward-history length + f64s
//	u32     CRC-32 (IEEE) of every preceding byte
//
// No optional fields, no padding: every valid artifact has exactly one
// encoding, so Encode(Decode(b)) == b (fuzz-pinned) and byte equality of
// encoded artifacts is a sound identity check.

const magic = "OICA"

const (
	policyKindNone     = 0
	policyKindSnapshot = 1
)

// EncodedSize returns the exact byte length Encode will produce.
func (a *Artifact) EncodedSize() int {
	n := 4 + 2 + frame.MetaSize(&a.Meta) +
		poly.EncodedBinarySize(a.Sets.X) + poly.EncodedBinarySize(a.Sets.XI) + poly.EncodedBinarySize(a.Sets.XPrime) +
		2
	for _, s := range a.Chain {
		n += poly.EncodedBinarySize(s)
	}
	n++ // policy kind
	if a.Policy != nil {
		n += 2 + len(a.Policy.Label) + 2 + 2 + 2*len(a.Policy.Sizes)
		for l := range a.Policy.Weights {
			n += 8 * (len(a.Policy.Weights[l]) + len(a.Policy.Biases[l]))
		}
		n += 2 + 16*len(a.Policy.XCenter) + 2 + 8*len(a.Policy.WScale)
	}
	n += 4 + 4 + 8 + 8 + 8 + 4 + 8*len(a.Train.RewardHistory) + 4
	return n
}

// Encode serializes the artifact into the canonical binary form. The
// artifact must be valid (Validate), or an error is returned.
func Encode(a *Artifact) ([]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, a.EncodedSize())
	buf = frame.AppendHeader(buf, magic, a.Version)
	buf = frame.AppendMeta(buf, a.NX, a.NU, &a.Meta)
	for _, p := range []*poly.Polytope{a.Sets.X, a.Sets.XI, a.Sets.XPrime} {
		buf = poly.AppendBinary(buf, p)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.Chain)))
	for _, s := range a.Chain {
		buf = poly.AppendBinary(buf, s)
	}
	if a.Policy == nil {
		buf = append(buf, policyKindNone)
	} else {
		p := a.Policy
		buf = append(buf, policyKindSnapshot)
		buf = frame.AppendStr(buf, p.Label)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(p.Memory))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Sizes)))
		for _, sz := range p.Sizes {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(sz))
		}
		for l := range p.Weights {
			buf = frame.AppendF64s(buf, p.Weights[l])
			buf = frame.AppendF64s(buf, p.Biases[l])
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.XCenter)))
		buf = frame.AppendF64s(buf, p.XCenter)
		buf = frame.AppendF64s(buf, p.XScale)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.WScale)))
		buf = frame.AppendF64s(buf, p.WScale)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Train.Episodes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Train.TotalSteps))
	buf = frame.AppendF64s(buf, []float64{a.Train.MeanReward, a.Train.FinalEpsilon, a.Train.FinalLossEMA})
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Train.RewardHistory)))
	buf = frame.AppendF64s(buf, a.Train.RewardHistory)
	return frame.Seal(buf, 0), nil
}

// Decode parses a canonical binary artifact. It is strict: unknown
// versions and policy kinds, out-of-range dimensions and counts, length
// mismatches, trailing bytes, and checksum failures are all rejected, and
// every length is checked against the remaining input before the
// corresponding allocation — a hostile input cannot make Decode allocate
// more than the input's own size justifies.
func Decode(b []byte) (*Artifact, error) {
	r := frame.NewReader("artifact", b)
	if err := r.Header(magic, Version); err != nil {
		return nil, err
	}
	a := &Artifact{Version: Version}
	a.NX, a.NU, a.Meta = r.Meta()
	a.Sets.X = poly.ReadBinary(r, MaxRows, MaxDim)
	a.Sets.XI = poly.ReadBinary(r, MaxRows, MaxDim)
	a.Sets.XPrime = poly.ReadBinary(r, MaxRows, MaxDim)
	chainLen := int(r.U16())
	if chainLen > MaxChain {
		r.Fail("skip chain length %d exceeds %d", chainLen, MaxChain)
	}
	for i := 0; i < chainLen && r.Err() == nil; i++ {
		a.Chain = append(a.Chain, poly.ReadBinary(r, MaxRows, MaxDim))
	}
	switch kind := r.U8(); kind {
	case policyKindNone:
	case policyKindSnapshot:
		a.Policy = readPolicy(r)
	default:
		r.Fail("unknown policy kind %d", kind)
	}
	a.Train.Episodes = int(r.U32())
	a.Train.TotalSteps = int(r.U32())
	a.Train.MeanReward = r.F64()
	a.Train.FinalEpsilon = r.F64()
	a.Train.FinalLossEMA = r.F64()
	nhist := int(r.U32())
	if nhist > MaxHistory {
		r.Fail("reward history length %d exceeds %d", nhist, MaxHistory)
	}
	a.Train.RewardHistory = r.F64s(nhist)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Len() != 4 {
		return nil, fmt.Errorf("artifact: %d trailing bytes after body", r.Len()-4)
	}
	if err := frame.Verify("artifact", b); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// readPolicy reads a snapshot policy's body; failures stick on r.
func readPolicy(r *frame.Reader) *Policy {
	p := &Policy{Label: r.Str(), Memory: int(r.U16())}
	nsizes := int(r.U16())
	if nsizes < 2 || nsizes > MaxLayers+1 {
		r.Fail("policy has %d layer sizes outside [2, %d]", nsizes, MaxLayers+1)
	}
	if !r.Need(2 * nsizes) {
		return nil
	}
	p.Sizes = make([]int, nsizes)
	for i := range p.Sizes {
		p.Sizes[i] = int(r.U16())
		if p.Sizes[i] < 1 || p.Sizes[i] > MaxUnits {
			r.Fail("policy layer %d size %d outside [1, %d]", i, p.Sizes[i], MaxUnits)
			return nil
		}
	}
	for l := 0; l < nsizes-1; l++ {
		p.Weights = append(p.Weights, r.F64s(p.Sizes[l+1]*p.Sizes[l]))
		p.Biases = append(p.Biases, r.F64s(p.Sizes[l+1]))
	}
	nx := int(r.U16())
	if nx < 1 || nx > MaxDim {
		r.Fail("policy state bounds length %d outside [1, %d]", nx, MaxDim)
	}
	p.XCenter = r.F64s(nx)
	p.XScale = r.F64s(nx)
	nw := int(r.U16())
	if nw < 1 || nw > MaxDim {
		r.Fail("policy disturbance bounds length %d outside [1, %d]", nw, MaxDim)
	}
	p.WScale = r.F64s(nw)
	return p
}
