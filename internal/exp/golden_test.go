package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"oic/internal/plant"
)

// The figure goldens are the test of record for the paper's evaluation:
// at one small fixed scale they pin, for every registered plant, the
// bytes `oic -json` emits for Fig. 4, for each ladder's sweep, for
// Table I and for the deterministic fields of the timing analysis, plus
// the text and CSV reports of one Fig. 4 and one sweep. Any change to the
// harness's arithmetic, its report fields or its format strings trips
// them.
//
// Regenerate after an intentional change to the figures with:
//
//	go test ./internal/exp -run TestGoldenFigures -update
var updateGolden = flag.Bool("update", false, "regenerate the figure goldens")

const goldenDir = "testdata/golden"

// goldenJSON encodes doc the way `oic -json` prints it.
func goldenJSON(t *testing.T, doc any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkGolden compares got with the committed file name, or rewrites it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenFigures(t *testing.T) {
	opt := smallOpt()
	for _, name := range plant.Names() {
		t.Run(name, func(t *testing.T) {
			p, err := plant.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			fig4, err := Fig4(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "fig4-"+name+".json", goldenJSON(t, fig4.Fig4Report))
			if name == "acc" {
				checkGolden(t, "fig4-acc.txt", []byte(RenderFig4(fig4)))
				checkGolden(t, "fig4-acc.csv", []byte(CSVFig4(fig4)))
			}

			for _, l := range p.Ladders() {
				series, err := Sweep(p, l, opt)
				if err != nil {
					t.Fatal(err)
				}
				base := "series-" + name + "-" + l.Name
				checkGolden(t, base+".json", goldenJSON(t, series.SeriesReport))
				if name == "thermo" {
					checkGolden(t, base+".txt", []byte(RenderSeries(series)))
					checkGolden(t, base+".csv", []byte(CSVSeries(series)))
				}
			}

			table, err := Table1(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "table1-"+name+".json", goldenJSON(t, table))

			timing, err := Timing(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			// The per-step durations and the saving derived from them are
			// wall times; only the rest of the report is deterministic.
			timing.CtrlPerStepNS, timing.MonitorPerStepNS, timing.ComputeSavingPct = 0, 0, 0
			checkGolden(t, "timing-"+name+".json", goldenJSON(t, timing))
		})
	}
}
