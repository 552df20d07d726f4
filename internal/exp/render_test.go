package exp

import (
	"strings"
	"testing"

	"oic/pkg/oic"
)

func TestHistogramBinning(t *testing.T) {
	h := oic.Histogram{Edges: []float64{0, 10, 20, 30}, Counts: make([]int, 3)}
	for _, x := range []float64{-5, 0, 5, 9.999, 10, 25, 30, 99} {
		addSample(&h, x)
	}
	if h.Underflow != 1 {
		t.Errorf("underflow = %d", h.Underflow)
	}
	if h.Overflow != 2 { // 30 and 99
		t.Errorf("overflow = %d", h.Overflow)
	}
	want := []int{3, 1, 1} // {0,5,9.999}, {10}, {25}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestRenderGrouped(t *testing.T) {
	a := oic.Histogram{Edges: []float64{0, 10, 20}, Counts: make([]int, 2)}
	b := oic.Histogram{Edges: []float64{0, 10, 20}, Counts: make([]int, 2)}
	addSample(&a, 5)
	addSample(&a, 15)
	addSample(&b, -1)
	out := renderGrouped([]string{"alpha", "beta"}, []*oic.Histogram{&a, &b})
	for _, want := range []string{"alpha", "beta", "0–10", "10–20", "< 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	out := renderSeries([]string{"Ex.1", "Ex.2"}, []float64{5, 10})
	if !strings.Contains(out, "Ex.1") || !strings.Contains(out, "10.00%") {
		t.Errorf("render output:\n%s", out)
	}
	// The larger value must have the longer bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "█") <= strings.Count(lines[0], "█") {
		t.Error("bar lengths not proportional")
	}
}
