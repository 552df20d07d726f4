package stats

import (
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0, 10, 20, 30})
	for _, x := range []float64{-5, 0, 5, 9.999, 10, 25, 30, 99} {
		h.Add(x)
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
	if h.Total() != 5 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramEdgeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nonincreasing edges")
		}
	}()
	NewHistogram([]float64{0, 0})
}

func TestRenderGrouped(t *testing.T) {
	a := NewHistogram([]float64{0, 10, 20})
	b := NewHistogram([]float64{0, 10, 20})
	a.Add(5)
	a.Add(15)
	b.Add(-1)
	out := RenderGrouped([]string{"alpha", "beta"}, []*Histogram{a, b}, 20)
	for _, want := range []string{"alpha", "beta", "0–10", "10–20", "< 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSeries(t *testing.T) {
	out := RenderSeries([]string{"Ex.1", "Ex.2"}, []float64{5, 10}, "%", 10)
	if !strings.Contains(out, "Ex.1") || !strings.Contains(out, "10.00%") {
		t.Errorf("render output:\n%s", out)
	}
	// The larger value must have the longer bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "█") <= strings.Count(lines[0], "█") {
		t.Error("bar lengths not proportional")
	}
}

func TestBinLabel(t *testing.T) {
	h := NewHistogram([]float64{0, 10, 20})
	if h.BinLabel(0) != "0–10" {
		t.Errorf("label = %q", h.BinLabel(0))
	}
}
