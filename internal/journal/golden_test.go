package journal

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oic/internal/trace"
)

// The golden journal corpus pins the OICJ wire format across PRs: three
// committed segments under testdata/golden (shared with
// FuzzDecodeJournal's seed corpus). The conformance test reads each,
// requires a clean (untorn) parse, and requires re-encoding the parsed
// records behind a fresh header to reproduce the committed bytes
// exactly — any codec change trips it.
//
// Regenerate after an *intentional* format change with:
//
//	go test ./internal/journal -run TestGoldenJournals -update
var updateGolden = flag.Bool("update", false, "regenerate golden journal segments")

const goldenDir = "testdata/golden"

func goldenCases() map[string][]*Record {
	meta := trace.Meta{Plant: "acc", Scenario: "acc-default", Policy: "always-run"}
	drl := trace.Meta{
		Plant: "thermo", Scenario: "thermo-default", Policy: "drl",
		TrainEpisodes: 24, TrainSteps: 40, TrainSeed: 5,
	}
	all := sampleRecords()
	return map[string][]*Record{
		// One session's full lifecycle.
		"session": {
			{Type: TypeOpen, ID: "s-7", Meta: meta, NX: 2, NU: 1, X0: []float64{25, -1.25}},
			{Type: TypeStep, ID: "s-7", NX: 2, NU: 1, Step: trace.Step{Ran: true, Level: 1,
				W: []float64{0.01, -0.02}, U: []float64{1.5}, X: []float64{24.9, -1.2}}},
			{Type: TypeStep, ID: "s-7", NX: 2, NU: 1, Step: trace.Step{Ran: false, Level: 0,
				W: []float64{0, 0}, U: []float64{0}, X: []float64{24.8, -1.15}}},
			{Type: TypeClose, ID: "s-7"},
		},
		// One fleet's lifecycle, DRL fingerprint, every config field set.
		"fleet": {
			{Type: TypeFleetOpen, ID: "f-3", Meta: drl, NX: 1, NU: 1, Budget: 50, Workers: 2, MaxSessions: 100,
				Traced: true, Degrade: true, TickDeadline: 50 * time.Millisecond,
				ElasticMin: 10, ElasticMax: 80, TargetMargin: 10 * time.Millisecond},
			{Type: TypeFleetAdmit, ID: "f-3", Member: 0, NX: 1, X0: []float64{21.5}},
			{Type: TypeFleetStep, ID: "f-3", Member: 0, NX: 1, NU: 1, Step: trace.Step{Ran: true, Forced: true, Level: 2,
				W: []float64{0.1}, U: []float64{-0.8}, X: []float64{21.3}}},
			{Type: TypeFleetEvict, ID: "f-3", Member: 0},
			{Type: TypeFleetClose, ID: "f-3"},
		},
		// Every record type interleaved (the round-trip sample set).
		"mixed": all,
	}
}

func TestGoldenJournals(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, recs := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(goldenDir, name+Ext)
			if *updateGolden {
				b := encodeSegment(t, recs)
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes, %d records)", path, len(b), len(recs))
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden segment (regenerate with -update): %v", err)
			}
			got, torn, err := ReadSegment(b)
			if err != nil {
				t.Fatalf("parsing golden segment: %v", err)
			}
			if torn {
				t.Fatal("golden segment reports torn tail")
			}
			if len(got) != len(recs) {
				t.Fatalf("parsed %d records, want %d", len(got), len(recs))
			}
			// Canonical form: re-encoding reproduces the committed bytes.
			b2 := AppendHeader(nil)
			for _, r := range got {
				if b2, err = AppendRecord(b2, r); err != nil {
					t.Fatal(err)
				}
			}
			if string(b2) != string(b) {
				t.Errorf("re-encoding differs from committed bytes (%d vs %d)", len(b2), len(b))
			}
		})
	}
}
