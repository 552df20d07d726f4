package oic

import (
	"errors"
	"fmt"
	"slices"

	"oic/internal/artifact"
	"oic/internal/core"
	"oic/internal/nn"
	"oic/internal/plant"
	"oic/internal/reach"
	"oic/internal/rl"
)

// Artifact is the persisted form of a compiled engine (DESIGN.md §9):
// the safety-set polytopes, the S_k skip chain, the trained policy
// network with its normalization bounds, the training statistics, and
// the canonical config fingerprint. Engine.Artifact produces one;
// LoadEngine turns one back into a serving engine without recompiling
// sets or retraining, with byte-identical behavior.
type Artifact = artifact.Artifact

// ArtifactStore is the content-addressed on-disk artifact catalogue
// (key = config fingerprint + format version) with hit/miss/corrupt
// accounting.
type ArtifactStore = artifact.Store

// ArtifactStoreStats snapshots an ArtifactStore's counters.
type ArtifactStoreStats = artifact.StoreStats

// ErrArtifactMismatch reports an artifact whose contents are internally
// inconsistent with the engine it claims to reconstruct (wrong
// dimensions, missing policy for a DRL config, policy bounds that do not
// fit the plant, fingerprint mismatch).
var ErrArtifactMismatch = errors.New("oic: artifact does not match its configuration")

// OpenArtifactStore opens (creating if needed) the artifact store rooted
// at dir.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	return artifact.OpenStore(dir, func(a *Artifact) string { return ConfigFromArtifact(a).Fingerprint() })
}

// EncodeArtifact serializes an artifact into the canonical binary form
// (Encode(DecodeArtifact(b)) == b for every valid b).
func EncodeArtifact(a *Artifact) ([]byte, error) { return artifact.Encode(a) }

// DecodeArtifact parses a canonical binary artifact, rejecting malformed
// input (bad magic/version, dimension and length inconsistencies,
// checksum failures) without unbounded allocation.
func DecodeArtifact(b []byte) (*Artifact, error) { return artifact.Decode(b) }

// Canonical resolves the defaults NewEngine would apply, so semantically
// identical configurations compare (and fingerprint) equal: empty policy
// means bang-bang, empty scenario means the plant's headline, training
// parameters only matter for the DRL policy, and a memory equal to the
// untrained-policy default (or any non-positive value) folds to 0.
// Canonical is idempotent; an unknown plant leaves the scenario empty
// (NewEngine will reject it with a better error).
func (c Config) Canonical() Config {
	if c.Policy == "" {
		c.Policy = PolicyBangBang
	}
	if c.Policy != PolicyDRL {
		c.Train = TrainConfig{}
	}
	// Memory ≤ 0 and the explicit default are the same engine for every
	// policy: untrained policies resolve to DefaultMemory, and DRL
	// training folds Memory 0 → DefaultMemory before building the encoder.
	if c.Memory < 0 || c.Memory == plant.DefaultMemory {
		c.Memory = 0
	}
	if c.Scenario == "" {
		if p, err := plant.Get(c.Plant); err == nil {
			c.Scenario = p.Headline().ID
		}
	}
	return c
}

// Fingerprint returns the canonical engine identity string shared by the
// library, the oicd engine cache, and the artifact store: two configs
// with equal fingerprints build behaviorally identical engines.
func (c Config) Fingerprint() string {
	c = c.Canonical()
	return fmt.Sprintf("%s|%s|%s|m%d|e%d|s%d|seed%d",
		c.Plant, c.Scenario, c.Policy, c.Memory,
		c.Train.Episodes, c.Train.Steps, c.Train.Seed)
}

// ConfigFromArtifact inverts an artifact's fingerprint into the canonical
// engine configuration it was compiled from — LoadEngine(a) and
// NewEngine(ConfigFromArtifact(a)) produce behaviorally identical
// engines.
func ConfigFromArtifact(a *Artifact) Config { return ConfigFromMeta(a.Meta) }

// Artifact serializes the engine's compiled state: the safety sets, the
// S_k chain (compiled on demand if the lazy oracle has not run yet), the
// trained policy snapshot for PolicyDRL, the training statistics, and
// the canonical config fingerprint. The returned artifact shares no
// mutable state with the engine and is safe to encode or store from any
// goroutine.
func (e *Engine) Artifact() (*Artifact, error) {
	sb, err := e.skipBudgetOracle()
	if err != nil {
		return nil, err
	}
	cfg := e.cfg.Canonical()
	sets := e.inst.Sets
	a := &Artifact{
		Version: artifact.Version,
		NX:      e.NX(),
		NU:      e.NU(),
		Meta:    cfg.meta(),
		Sets:    artifact.Sets{X: sets.X, XI: sets.XI, XPrime: sets.XPrime},
		Chain:   slices.Clone(sb.Sets()),
		Train: artifact.TrainStats{
			Episodes:      e.train.Episodes,
			TotalSteps:    e.train.TotalSteps,
			MeanReward:    e.train.MeanReward,
			RewardHistory: slices.Clone(e.train.RewardHistory),
			FinalEpsilon:  e.train.FinalEpsilon,
			FinalLossEMA:  e.train.FinalLossEMA,
		},
	}
	if cfg.Policy == PolicyDRL {
		// A PolicyDRL engine's policy comes from plant.TrainDRL or
		// plant.RestoreDRLPolicy, both snapshottable.
		snap, err := e.policy.(plant.SnapshottablePolicy).PolicySnapshot()
		if err != nil {
			return nil, fmt.Errorf("oic: snapshotting %s policy: %w", cfg.Plant, err)
		}
		a.Policy = &artifact.Policy{
			Label:   snap.Label,
			Memory:  snap.Memory,
			Sizes:   snap.Net.Sizes,
			Weights: snap.Net.Weights,
			Biases:  snap.Net.Biases,
			XCenter: snap.XCenter,
			XScale:  snap.XScale,
			WScale:  snap.WScale,
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadEngine reconstructs a serving engine from a persisted artifact,
// skipping the two expensive halves of NewEngine entirely: the safety
// sets come from the artifact instead of the invariant-set/feasible-set
// synthesis, and the skipping policy is restored from its snapshot
// instead of retrained. The loaded engine is byte-identical in behavior
// to the engine the artifact was taken from — identical decisions,
// states, and recorded traces — because every float64 it computes with
// (set halfspaces, network parameters, normalization bounds) round-trips
// exactly through the codec.
func LoadEngine(a *Artifact) (*Engine, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cfg := ConfigFromArtifact(a)
	p, sc, err := lookupScenario(cfg)
	if err != nil {
		return nil, err
	}
	inst, err := p.Instantiate(sc, &core.SafetySets{X: a.Sets.X, XI: a.Sets.XI, XPrime: a.Sets.XPrime})
	if err != nil {
		return nil, err
	}
	if nx, nu := inst.Sys.NX(), inst.Sys.NU(); nx != a.NX || nu != a.NU {
		return nil, fmt.Errorf("%w: artifact dims %d×%d, plant %s is %d×%d",
			ErrArtifactMismatch, a.NX, a.NU, cfg.Plant, nx, nu)
	}
	if len(a.Chain) > 0 {
		if err := reach.ValidateSkipChain(a.Chain, 1e-9); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrArtifactMismatch, err)
		}
	}
	e, err := assemble(cfg, p, sc, inst, func() (core.SkipPolicy, rl.TrainStats, error) {
		if a.Policy == nil {
			return nil, rl.TrainStats{}, fmt.Errorf("%w: DRL config but no policy snapshot", ErrArtifactMismatch)
		}
		pol, err := plant.RestoreDRLPolicy(inst, &plant.PolicySnapshot{
			Label:  a.Policy.Label,
			Memory: a.Policy.Memory,
			Net: &nn.Snapshot{
				Sizes:   a.Policy.Sizes,
				Weights: a.Policy.Weights,
				Biases:  a.Policy.Biases,
			},
			XCenter: a.Policy.XCenter,
			XScale:  a.Policy.XScale,
			WScale:  a.Policy.WScale,
		})
		if err != nil {
			return nil, rl.TrainStats{}, fmt.Errorf("%w: %v", ErrArtifactMismatch, err)
		}
		return pol, rl.TrainStats{
			Episodes:      a.Train.Episodes,
			TotalSteps:    a.Train.TotalSteps,
			MeanReward:    a.Train.MeanReward,
			RewardHistory: a.Train.RewardHistory,
			FinalEpsilon:  a.Train.FinalEpsilon,
			FinalLossEMA:  a.Train.FinalLossEMA,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Prefill the lazy skip-budget oracle from the persisted chain so
	// SkipBudget and fleets never recompute it either.
	e.sbOnce.Do(func() { e.sb = reach.BudgetFromChain(a.Chain) })
	return e, nil
}
