package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"oic/pkg/oic"
)

// FuzzWireRequests fuzzes the server's request decode + validation paths
// — every byte-level surface a client controls short of engine
// construction: session create, step, fleet create, fleet tick, and
// replay (including the embedded binary-trace decoder). Properties: no
// panics, and every accepted replay body yields a structurally valid
// trace within the server's cost caps.
//
// The seed corpus covers each request shape, valid and hostile, plus the
// golden traces in both JSON and base64-binary embedding.
func FuzzWireRequests(f *testing.F) {
	seed := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(oic.CreateSessionRequest{Plant: "acc", Policy: "bang-bang", Seed: 7, Trace: true})
	seed(oic.CreateSessionRequest{Plant: "acc", Policy: "drl",
		Train: oic.TrainConfig{Episodes: 20000, Steps: 20000}})
	seed(oic.StepRequest{W: []float64{0.5, 0}})
	seed(oic.StepRequest{WS: [][]float64{{0.5, 0}, {-0.5, 0}}})
	seed(oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 8, Size: 64})
	seed(oic.FleetTickRequest{Ticks: 3})
	seed(oic.FleetTickRequest{WS: map[int][]float64{0: {0.5, 0}}})
	seed(oic.ReplayRequest{Policy: "always-run", ComputeBudget: 5})
	if golden, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "golden", "*.oict")); err == nil {
		for _, path := range golden {
			raw, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			seed(oic.ReplayRequest{TraceBin: raw, Audit: true})
			if tr, err := oic.DecodeTrace(raw); err == nil {
				seed(oic.ReplayRequest{Trace: tr, Policy: "bang-bang"})
			}
		}
	}
	f.Add([]byte(`{"trace":{"version":1,"meta":{"plant":"acc"},"nx":1000000}}`))
	f.Add([]byte(`{"trace_bin":"` + base64.StdEncoding.EncodeToString([]byte("OICT\x01\x00garbage")) + `"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each request type gets its own decode pass over the same bytes,
		// mirroring what the handlers do before touching any engine.
		decode := func(dst any) error {
			r := httptest.NewRequest("POST", "/fuzz", bytes.NewReader(data))
			return decodeJSON(r, dst)
		}

		var cs oic.CreateSessionRequest
		if err := decode(&cs); err == nil {
			cfg := oic.Config{
				Plant: cs.Plant, Scenario: cs.Scenario, Policy: cs.Policy,
				Memory: cs.Memory, Train: cs.Train,
			}
			if verr := validateCreate(cfg); verr == nil {
				// Accepted configurations stay within the cost caps.
				if cs.Memory < 0 || cs.Memory > maxMemory ||
					cs.Train.Episodes*cs.Train.Steps > maxTrainTotal {
					t.Fatalf("validateCreate accepted out-of-cap request %+v", cs)
				}
			}
		}

		var st oic.StepRequest
		_ = decode(&st)

		var fc oic.CreateFleetRequest
		if err := decode(&fc); err == nil {
			if verr := validateFleetCreate(&fc); verr == nil {
				if fc.MaxSessions < 0 || fc.MaxSessions > maxFleetSessions || fc.ComputeBudget < 0 {
					t.Fatalf("validateFleetCreate accepted out-of-cap request %+v", fc)
				}
			}
		}

		var tk oic.FleetTickRequest
		_ = decode(&tk)

		var rr oic.ReplayRequest
		if err := decode(&rr); err == nil {
			tr, verr := resolveTrace(rr.Trace, rr.TraceBin, maxReplaySteps)
			if verr == nil {
				if tr == nil {
					t.Fatal("resolveTrace accepted a request but returned no trace")
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("resolveTrace accepted an invalid trace: %v", err)
				}
				if tr.Len() > maxReplaySteps {
					t.Fatalf("resolveTrace accepted %d steps", tr.Len())
				}
			}
		}
	})
}
