package plant

import (
	"fmt"

	"oic/internal/core"
	"oic/internal/mat"
	"oic/internal/nn"
)

// DRLPolicyLabel is the canonical name of a trained DRL skipping policy
// — shared by the trainer and the restorer so snapshots round-trip under
// one label.
const DRLPolicyLabel = "drl-ddqn"

// PolicySnapshot is the persistable form of a trained skipping policy:
// the Q-network's parameters plus the exact normalization bounds its
// encoder used during training. Restoring from these values (rather than
// re-deriving bounds from the safety sets) is what makes the restored
// policy bit-identical to the trained one even if set-derived defaults
// drift across versions.
type PolicySnapshot struct {
	Label   string
	Memory  int
	Net     *nn.Snapshot
	XCenter []float64
	XScale  []float64
	WScale  []float64
}

// SnapshottablePolicy is implemented by skipping policies that can
// serialize themselves into an artifact.
type SnapshottablePolicy interface {
	core.SkipPolicy
	PolicySnapshot() (*PolicySnapshot, error)
}

// RestoreDRLPolicy rebuilds inst's trained DRL policy from a snapshot:
// the restored encoder uses the stored bounds verbatim and the restored
// network the stored parameters verbatim, so Decide computes the same
// float64s as the policy the snapshot was taken from. The bounds must fit
// the plant — one center and scale per state, between one and NX
// disturbance scales — and, when inst fixes its encoder, equal the fixed
// bounds bit for bit: a snapshot taken on another design range would
// silently misnormalize.
func RestoreDRLPolicy(inst *Instance, snap *PolicySnapshot) (core.SkipPolicy, error) {
	if snap == nil {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: nil snapshot")
	}
	if snap.Label != DRLPolicyLabel {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: unknown policy label %q", snap.Label)
	}
	if snap.Memory < 1 {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: memory %d < 1", snap.Memory)
	}
	nx := inst.Sys.NX()
	if len(snap.XCenter) != nx || len(snap.XScale) != nx || len(snap.WScale) < 1 || len(snap.WScale) > nx {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: normalization bounds (%d/%d/%d) do not fit a plant with %d states",
			len(snap.XCenter), len(snap.XScale), len(snap.WScale), nx)
	}
	enc := FixedEncoder(
		append(mat.Vec(nil), snap.XCenter...),
		append(mat.Vec(nil), snap.XScale...),
		append(mat.Vec(nil), snap.WScale...),
	)
	if want := inst.Encoder; want != nil && (!mat.BitsEqual(enc.xCenter, want.xCenter) ||
		!mat.BitsEqual(enc.xScale, want.xScale) || !mat.BitsEqual(enc.wScale, want.wScale)) {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: snapshot bounds %v/%v/%v, plant fixes %v/%v/%v",
			enc.xCenter, enc.xScale, enc.wScale, want.xCenter, want.xScale, want.wScale)
	}
	net, err := nn.FromSnapshot(snap.Net)
	if err != nil {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: %w", err)
	}
	if want := enc.StateDim(snap.Memory); net.Sizes[0] != want {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: network input %d, encoder expects %d", net.Sizes[0], want)
	}
	if net.Sizes[len(net.Sizes)-1] != 2 {
		return nil, fmt.Errorf("plant: RestoreDRLPolicy: network has %d outputs, want 2", net.Sizes[len(net.Sizes)-1])
	}
	return newTrainedPolicy(net, enc, snap.Memory), nil
}
