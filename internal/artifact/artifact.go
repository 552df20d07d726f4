// Package artifact defines the persisted form of a compiled engine: the
// paper's offline synthesis products — safety-set polytopes (X, XI, X′),
// the consecutive-skip chain S₁…S_m, the trained skipping policy's
// Q-network with its normalization bounds, and the training statistics —
// keyed by the canonicalized engine-config fingerprint. An artifact is
// everything the online loop needs that is expensive to recompute;
// loading one skips set synthesis and DRL training entirely while
// reproducing the built engine's behavior bit-for-bit.
//
// The binary codec is built on the shared internal/frame framing: "OICA"
// magic and version, the fingerprint block, fixed little-endian layout,
// no optional fields or padding (so every valid artifact has exactly one
// encoding and Encode∘Decode is the identity, fuzz-pinned), a CRC-32
// (IEEE) trailer, and a strict decoder that checks every length against
// the remaining input before allocating.
//
// The package deliberately depends only on internal/poly, internal/frame
// and the standard library: the network is stored as flat layer sizes,
// weights, and biases, and pkg/oic maps those to live nn/plant types.
package artifact

import (
	"errors"
	"fmt"
	"math"

	"oic/internal/frame"
	"oic/internal/poly"
)

// Format limits. Decoders reject anything outside these bounds before
// allocating, so a hostile header cannot demand unbounded memory.
const (
	Version    = 1
	MaxDim     = 64              // state/input dimension bound (shared with trace)
	MaxRows    = 4096            // halfspace rows per polytope
	MaxChain   = 64              // consecutive-skip chain length
	MaxString  = frame.MaxString // identifier strings
	MaxLayers  = 16              // network layers (size entries − 1)
	MaxUnits   = 4096            // units per network layer
	MaxMemory  = 64              // disturbance-memory window
	MaxHistory = 1 << 20         // reward-history entries
)

// Typed decode failures — the shared framing's, wrapped with context by
// the codec. Callers distinguish a corrupt entry (checksum, truncation)
// from a foreign file (magic, version) without string matching.
var (
	ErrBadMagic   = frame.ErrBadMagic
	ErrBadVersion = frame.ErrBadVersion
	ErrTruncated  = frame.ErrTruncated
	ErrChecksum   = frame.ErrChecksum
)

// Sets are the compiled safety-set polytopes of DESIGN.md §2: the safe
// set X, the robust control invariant XI (Proposition 1), and the
// strengthened safe set X′ (Theorem 1).
type Sets struct {
	X      *poly.Polytope
	XI     *poly.Polytope
	XPrime *poly.Polytope
}

// Policy is the persisted skipping policy: the Q-network's parameters
// plus the exact normalization bounds its encoder used during training
// (plant.PolicySnapshot, flattened so this package needs no nn import).
type Policy struct {
	Label   string
	Memory  int
	Sizes   []int       // layer sizes, input first
	Weights [][]float64 // Weights[l] is Sizes[l+1]×Sizes[l], row-major
	Biases  [][]float64 // Biases[l] has Sizes[l+1] entries
	XCenter []float64
	XScale  []float64 // same length as XCenter
	WScale  []float64
}

// TrainStats mirrors rl.TrainStats in a dependency-free form.
type TrainStats struct {
	Episodes      int
	TotalSteps    int
	MeanReward    float64
	RewardHistory []float64
	FinalEpsilon  float64
	FinalLossEMA  float64
}

// Artifact is one compiled engine, ready to persist or load. Meta is the
// engine-configuration fingerprint it was compiled from, in canonical
// form (policy name defaulted, training budget cleared for non-learned
// policies, memory folded to 0 when it equals the default, scenario
// resolved to a concrete ID) — the same canonical form
// oic.Config.Fingerprint and the oicd engine cache key use, so library,
// server, and store agree on identity.
type Artifact struct {
	Version int
	NX, NU  int
	Meta    frame.Meta
	Sets    Sets
	Chain   []*poly.Polytope // S₁ ⊇ … ⊇ S_m (may be shorter than the max budget)
	Policy  *Policy          // nil for policies with no learned state
	Train   TrainStats
}

func validString(name, s string) error {
	if s == "" {
		return fmt.Errorf("artifact: empty %s", name)
	}
	if len(s) > MaxString {
		return fmt.Errorf("artifact: %s length %d exceeds %d", name, len(s), MaxString)
	}
	return nil
}

func validPolytope(name string, p *poly.Polytope, nx int) error {
	if p == nil {
		return fmt.Errorf("artifact: nil polytope %s", name)
	}
	if p.Dim() != nx {
		return fmt.Errorf("artifact: polytope %s has dimension %d, want %d", name, p.Dim(), nx)
	}
	if p.NumRows() < 1 || p.NumRows() > MaxRows {
		return fmt.Errorf("artifact: polytope %s has %d rows outside [1, %d]", name, p.NumRows(), MaxRows)
	}
	return nil
}

// Validate checks structural consistency against the format limits — the
// same predicate the decoder enforces, so valid artifacts round-trip and
// invalid ones never encode.
func (a *Artifact) Validate() error {
	if a == nil {
		return errors.New("artifact: nil artifact")
	}
	if a.Version != Version {
		return fmt.Errorf("artifact: %w %d (want %d)", ErrBadVersion, a.Version, Version)
	}
	if a.NX < 1 || a.NX > MaxDim || a.NU < 1 || a.NU > MaxDim {
		return fmt.Errorf("artifact: dimensions %d×%d outside [1, %d]", a.NX, a.NU, MaxDim)
	}
	if err := validString("plant", a.Meta.Plant); err != nil {
		return err
	}
	if err := validString("scenario", a.Meta.Scenario); err != nil {
		return err
	}
	if err := validString("policy name", a.Meta.Policy); err != nil {
		return err
	}
	if a.Meta.Memory < 0 || a.Meta.Memory > MaxMemory {
		return fmt.Errorf("artifact: memory %d outside [0, %d]", a.Meta.Memory, MaxMemory)
	}
	if a.Meta.TrainEpisodes < 0 || a.Meta.TrainEpisodes > math.MaxUint32 ||
		a.Meta.TrainSteps < 0 || a.Meta.TrainSteps > math.MaxUint32 {
		return fmt.Errorf("artifact: training budget %d×%d outside uint32",
			a.Meta.TrainEpisodes, a.Meta.TrainSteps)
	}
	if err := validPolytope("X", a.Sets.X, a.NX); err != nil {
		return err
	}
	if err := validPolytope("XI", a.Sets.XI, a.NX); err != nil {
		return err
	}
	if err := validPolytope("X'", a.Sets.XPrime, a.NX); err != nil {
		return err
	}
	if len(a.Chain) > MaxChain {
		return fmt.Errorf("artifact: skip chain length %d exceeds %d", len(a.Chain), MaxChain)
	}
	for i, s := range a.Chain {
		if err := validPolytope(fmt.Sprintf("S_%d", i+1), s, a.NX); err != nil {
			return err
		}
	}
	if a.Policy != nil {
		if err := a.Policy.validate(); err != nil {
			return err
		}
	}
	return a.Train.validate()
}

func (p *Policy) validate() error {
	if err := validString("policy label", p.Label); err != nil {
		return err
	}
	if p.Memory < 1 || p.Memory > MaxMemory {
		return fmt.Errorf("artifact: policy memory %d outside [1, %d]", p.Memory, MaxMemory)
	}
	if len(p.Sizes) < 2 || len(p.Sizes) > MaxLayers+1 {
		return fmt.Errorf("artifact: policy has %d layer sizes outside [2, %d]", len(p.Sizes), MaxLayers+1)
	}
	for i, sz := range p.Sizes {
		if sz < 1 || sz > MaxUnits {
			return fmt.Errorf("artifact: policy layer %d size %d outside [1, %d]", i, sz, MaxUnits)
		}
	}
	if len(p.Weights) != len(p.Sizes)-1 || len(p.Biases) != len(p.Sizes)-1 {
		return fmt.Errorf("artifact: policy has %d weight and %d bias layers, want %d",
			len(p.Weights), len(p.Biases), len(p.Sizes)-1)
	}
	for l := 0; l < len(p.Sizes)-1; l++ {
		r, c := p.Sizes[l+1], p.Sizes[l]
		if len(p.Weights[l]) != r*c || len(p.Biases[l]) != r {
			return fmt.Errorf("artifact: policy layer %d shape mismatch (%d weights, %d biases, want %d×%d)",
				l, len(p.Weights[l]), len(p.Biases[l]), r, c)
		}
	}
	if p.Sizes[len(p.Sizes)-1] != 2 {
		return fmt.Errorf("artifact: policy has %d outputs, want 2 (skip/run)", p.Sizes[len(p.Sizes)-1])
	}
	if len(p.XCenter) < 1 || len(p.XCenter) > MaxDim || len(p.XScale) != len(p.XCenter) {
		return fmt.Errorf("artifact: policy state bounds length %d/%d invalid", len(p.XCenter), len(p.XScale))
	}
	if len(p.WScale) < 1 || len(p.WScale) > MaxDim {
		return fmt.Errorf("artifact: policy disturbance bounds length %d outside [1, %d]", len(p.WScale), MaxDim)
	}
	if want := len(p.XCenter) + p.Memory*len(p.WScale); p.Sizes[0] != want {
		return fmt.Errorf("artifact: policy input size %d does not match encoder (%d state + %d×%d disturbance)",
			p.Sizes[0], len(p.XCenter), p.Memory, len(p.WScale))
	}
	return nil
}

func (t *TrainStats) validate() error {
	if t.Episodes < 0 || t.Episodes > math.MaxUint32 || t.TotalSteps < 0 || t.TotalSteps > math.MaxUint32 {
		return fmt.Errorf("artifact: train stats counts %d/%d outside uint32", t.Episodes, t.TotalSteps)
	}
	if len(t.RewardHistory) > MaxHistory {
		return fmt.Errorf("artifact: reward history length %d exceeds %d", len(t.RewardHistory), MaxHistory)
	}
	for _, v := range []float64{t.MeanReward, t.FinalEpsilon, t.FinalLossEMA} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("artifact: non-finite train statistic %v", v)
		}
	}
	return nil
}
