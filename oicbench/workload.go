package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"oic/pkg/oic"
)

// pins is pins.json: every input a run depends on besides its seed.
type pins struct {
	// GoldenDir holds the committed artifact corpus, relative to the
	// checkout root. The benchmark only reads it.
	GoldenDir string           `json:"golden_dir"`
	Workloads map[string]*spec `json:"workloads"`
	// Recorded holds the lane digest and journal record count of each
	// (workload, seed) measured when the benchmark was defined.
	Recorded map[string]map[string]record `json:"recorded"`
}

// spec pins one workload's scale: one fleet of Members created with
// size/seed under a compute budget, ticked Warmup untimed times and then
// Window timed times.
type spec struct {
	Artifact string `json:"artifact"` // file under GoldenDir
	SHA256   string `json:"sha256"`   // its digest; any other content is refused

	Members int `json:"members"`
	Budget  int `json:"compute_budget"`

	Warmup int `json:"warmup"` // untimed ticks after setup
	Window int `json:"window"` // timed ticks
	// TraceWindow is the traced run's window: whole segments, shorter than
	// Window so that serving plus the single-worker replay fit one run.
	TraceWindow int `json:"trace_window"`
	// Segment is the length of the consecutive parts the window is split
	// into, one period of the scenario's disturbance cycle, so that every
	// segment holds the same work. Throughput and CPU efficiency are the
	// median over segments: a burst of contention from outside the
	// deployment moves one segment, not the run.
	Segment int `json:"segment"`
}

// record is the work a run did, which must repeat exactly for its seed.
type record struct {
	Lanes          string `json:"lanes_sha256"`
	JournalAppends int64  `json:"journal_appends"`
}

func loadPins(path string) (*pins, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

// loadArtifact reads a golden artifact and refuses it unless its SHA-256
// is the pinned one.
func loadArtifact(path, want string) (*oic.Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("%s has SHA-256 %s, pinned %s: refusing to run on other inputs", path, got, want)
	}
	return oic.DecodeArtifact(b)
}

// seedStore files the artifact into a fresh store directory with the
// program's own store API, so that -preload finds exactly this engine.
func seedStore(dir string, a *oic.Artifact) error {
	st, err := oic.OpenArtifactStore(dir)
	if err != nil {
		return err
	}
	return st.Put(oic.ConfigFromArtifact(a).Fingerprint(), a)
}

// inputs is everything a run sends, generated before any timing starts.
type inputs struct {
	cfg    oic.Config    // the artifact's exact engine config
	ws     [][][]float64 // ws[i][t]: member i's disturbance at tick t
	bodies [][]byte      // tick request bodies in send order
	steps  int           // member-steps per tick
}

// makeInputs draws member i's disturbances with DrawCase(seed+i, …) and
// encodes every tick's request body.
func makeInputs(eng *oic.Engine, sp *spec, seed int64, total int) (*inputs, error) {
	in := &inputs{cfg: eng.Config(), steps: sp.Members}
	for i := 0; i < sp.Members; i++ {
		_, w, err := eng.DrawCase(seed+int64(i), total)
		if err != nil {
			return nil, err
		}
		in.ws = append(in.ws, w)
	}
	in.bodies = make([][]byte, total)
	for t := range in.bodies {
		var err error
		if in.bodies[t], err = json.Marshal(oic.FleetTickRequest{WS: in.tickWS(t)}); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// tickWS is tick t's disturbance map, keyed by member ID (members are
// admitted with IDs 0..n-1).
func (in *inputs) tickWS(t int) map[int][]float64 {
	m := make(map[int][]float64, len(in.ws))
	for i, w := range in.ws {
		m[i] = w[t]
	}
	return m
}

// recordPath is where a checkout keeps the work record of a (workload,
// seed, run length) seen first in it, for later runs to match.
func recordPath(dir, workload string, seed int64, warm, window int) string {
	return filepath.Join(dir, "records", workload+"-seed"+strconv.FormatInt(seed, 10)+
		"-"+strconv.Itoa(warm)+"+"+strconv.Itoa(window)+".json")
}
