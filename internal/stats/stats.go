// Package stats provides the fixed-bin histograms, with ASCII rendering
// for terminal reports, that the experiment harness uses.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts samples into len(Edges)−1 bins [Edges[i], Edges[i+1]),
// with explicit underflow and overflow counters.
type Histogram struct {
	Edges     []float64
	Counts    []int
	Underflow int
	Overflow  int
}

// NewHistogram returns a histogram over the given strictly increasing bin
// edges.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: NewHistogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: NewHistogram edges must increase")
		}
	}
	return &Histogram{Edges: append([]float64(nil), edges...), Counts: make([]int, len(edges)-1)}
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	if x < h.Edges[0] {
		h.Underflow++
		return
	}
	if x >= h.Edges[len(h.Edges)-1] {
		h.Overflow++
		return
	}
	i := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the insertion point; bin index is point−1
	// except when x equals an edge exactly.
	if i < len(h.Edges) && h.Edges[i] == x {
		h.Counts[i]++
		return
	}
	h.Counts[i-1]++
}

// Total returns the number of in-range samples.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BinLabel renders bin i as "lo–hi".
func (h *Histogram) BinLabel(i int) string {
	return fmt.Sprintf("%g–%g", h.Edges[i], h.Edges[i+1])
}

// RenderGrouped renders one or more histograms with identical edges as a
// grouped ASCII bar chart (one row per bin, one bar per series). width is
// the maximum bar length in characters.
func RenderGrouped(names []string, hists []*Histogram, width int) string {
	if len(names) != len(hists) || len(hists) == 0 {
		panic("stats: RenderGrouped: names/hists mismatch")
	}
	edges := hists[0].Edges
	for _, h := range hists[1:] {
		if len(h.Edges) != len(edges) {
			panic("stats: RenderGrouped: histograms must share edges")
		}
	}
	if width <= 0 {
		width = 40
	}
	maxCount := 1
	for _, h := range hists {
		for _, c := range h.Counts {
			if c > maxCount {
				maxCount = c
			}
		}
		if h.Underflow > maxCount {
			maxCount = h.Underflow
		}
	}
	var b strings.Builder
	bar := func(c int) string {
		n := c * width / maxCount
		return strings.Repeat("█", n)
	}
	anyUnder := false
	for _, h := range hists {
		if h.Underflow > 0 {
			anyUnder = true
		}
	}
	if anyUnder {
		fmt.Fprintf(&b, "%12s\n", "< "+fmt.Sprint(edges[0]))
		for s, h := range hists {
			fmt.Fprintf(&b, "  %-18s %4d %s\n", names[s], h.Underflow, bar(h.Underflow))
		}
	}
	for i := 0; i < len(edges)-1; i++ {
		fmt.Fprintf(&b, "%12s\n", hists[0].BinLabel(i))
		for s, h := range hists {
			fmt.Fprintf(&b, "  %-18s %4d %s\n", names[s], h.Counts[i], bar(h.Counts[i]))
		}
	}
	return b.String()
}

// RenderSeries renders labeled values as an ASCII bar chart, scaling bars
// to the maximum absolute value.
func RenderSeries(labels []string, values []float64, unit string, width int) string {
	if len(labels) != len(values) {
		panic("stats: RenderSeries: labels/values mismatch")
	}
	if width <= 0 {
		width = 40
	}
	maxAbs := 1e-12
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	var b strings.Builder
	for i, v := range values {
		n := int(math.Abs(v) / maxAbs * float64(width))
		fmt.Fprintf(&b, "%-14s %8.2f%s %s\n", labels[i], v, unit, strings.Repeat("█", n))
	}
	return b.String()
}
