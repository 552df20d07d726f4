package artifact_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"oic/internal/artifact"
	"oic/pkg/oic"

	// Register the case studies.
	_ "oic/internal/acc"
	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

// The golden artifact corpus pins the wire format across PRs: one
// encoded engine per (plant, policy) under testdata/golden (shared with
// FuzzDecodeArtifact's seed corpus). The conformance test decodes each,
// requires the canonical re-encoding to reproduce the committed bytes
// exactly, and requires oic.LoadEngine to accept it — any codec change
// trips it. pkg/oic's TestLoadEngineConformance rebuilds the six engines
// and requires their artifacts to encode to these bytes, so a
// set-synthesis or training change trips that.
//
// Regenerate after an *intentional* format or numerical change with:
//
//	go test ./internal/artifact -run TestGoldenArtifacts -update
var updateGolden = flag.Bool("update", false, "regenerate golden artifacts")

const goldenDir = "testdata/golden"

// goldenConfigs mirrors pkg/oic's golden-trace cases, so the artifact
// corpus and the trace corpus pin the same six engines.
var goldenConfigs = []struct {
	name string
	cfg  oic.Config
}{
	{"acc-always-run", oic.Config{Plant: "acc", Policy: oic.PolicyAlwaysRun}},
	{"acc-drl", oic.Config{Plant: "acc", Policy: oic.PolicyDRL, Train: oic.TrainConfig{Episodes: 24, Steps: 40, Seed: 5}}},
	{"thermo-always-run", oic.Config{Plant: "thermo", Policy: oic.PolicyAlwaysRun}},
	{"thermo-drl", oic.Config{Plant: "thermo", Policy: oic.PolicyDRL, Train: oic.TrainConfig{Episodes: 24, Steps: 40, Seed: 5}}},
	{"orbit-always-run", oic.Config{Plant: "orbit", Policy: oic.PolicyAlwaysRun}},
	{"orbit-drl", oic.Config{Plant: "orbit", Policy: oic.PolicyDRL, Train: oic.TrainConfig{Episodes: 24, Steps: 40, Seed: 5}}},
}

func goldenPath(name string) string { return filepath.Join(goldenDir, name+artifact.Ext) }

func TestGoldenArtifacts(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gc := range goldenConfigs {
		t.Run(gc.name, func(t *testing.T) {
			if *updateGolden {
				eng, err := oic.NewEngine(gc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				a, err := eng.Artifact()
				if err != nil {
					t.Fatal(err)
				}
				b, err := artifact.Encode(a)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(gc.name), b, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes, chain S_1..S_%d)", goldenPath(gc.name), len(b), len(a.Chain))
				return
			}
			b, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("reading golden artifact (regenerate with -update): %v", err)
			}
			a, err := artifact.Decode(b)
			if err != nil {
				t.Fatalf("decoding golden artifact: %v", err)
			}
			// Canonical form: the committed bytes are the only encoding.
			b2, err := artifact.Encode(a)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(b2) {
				t.Errorf("re-encoding differs from committed bytes (%d vs %d)", len(b2), len(b))
			}
			// The fingerprint inverts to the canonical recording config.
			if got, want := oic.ConfigFromArtifact(a).Fingerprint(), gc.cfg.Fingerprint(); got != want {
				t.Errorf("fingerprint %q, want %q", got, want)
			}
			// And the artifact reconstructs a serving engine.
			eng, err := oic.LoadEngine(a)
			if err != nil {
				t.Fatalf("LoadEngine: %v", err)
			}
			if eng.PolicyName() == "" || eng.ScenarioID() == "" {
				t.Error("loaded engine is missing identity")
			}
		})
	}
}
