package exp

import (
	"encoding/csv"
	"fmt"
	"math"
	"strings"
	"time"

	"oic/pkg/oic"
)

// barWidth is the length in cells of a chart's longest bar.
const barWidth = 40

// renderGrouped draws histograms that share their edges as a grouped
// ASCII bar chart: one row per bin, labelled "lo–hi", with one bar per
// series under it, and an underflow row first when any series has one.
func renderGrouped(names []string, hists []*oic.Histogram) string {
	edges := hists[0].Edges
	maxCount := 1
	anyUnder := false
	for _, h := range hists {
		for _, c := range h.Counts {
			maxCount = max(maxCount, c)
		}
		maxCount = max(maxCount, h.Underflow)
		anyUnder = anyUnder || h.Underflow > 0
	}
	var b strings.Builder
	bars := func(count func(h *oic.Histogram) int) {
		for s, h := range hists {
			c := count(h)
			fmt.Fprintf(&b, "  %-18s %4d %s\n", names[s], c, strings.Repeat("█", c*barWidth/maxCount))
		}
	}
	if anyUnder {
		fmt.Fprintf(&b, "%12s\n", "< "+fmt.Sprint(edges[0]))
		bars(func(h *oic.Histogram) int { return h.Underflow })
	}
	for i := range len(edges) - 1 {
		fmt.Fprintf(&b, "%12s\n", fmt.Sprintf("%g–%g", edges[i], edges[i+1]))
		bars(func(h *oic.Histogram) int { return h.Counts[i] })
	}
	return b.String()
}

// renderSeries draws labelled percentages as an ASCII bar chart, scaling
// the bars to the largest absolute value.
func renderSeries(labels []string, values []float64) string {
	maxAbs := 1e-12
	for _, v := range values {
		maxAbs = max(maxAbs, math.Abs(v))
	}
	var b strings.Builder
	for i, v := range values {
		n := int(math.Abs(v) / maxAbs * float64(barWidth))
		fmt.Fprintf(&b, "%-14s %8.2f%% %s\n", labels[i], v, strings.Repeat("█", n))
	}
	return b.String()
}

// paperNoteFig4 returns the ACC paper's reference numbers; other plants
// have no published baseline to annotate.
func paperNoteFig4(plantName string, kind string) string {
	if plantName != "acc" {
		return ""
	}
	switch kind {
	case "mean":
		return "   (paper: 16.28% / 23.83%)"
	case "skips":
		return "   (paper: 79.4)"
	}
	return ""
}

// RenderFig4 formats a savings-distribution result as a terminal report.
func RenderFig4(r *Fig4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — %s-cost savings vs always-run κ on plant %q (%d cases, %d steps)\n",
		r.CostLabel, r.Plant, r.Cases, r.Steps)
	fmt.Fprintf(&b, "scenario %s: %s\n\n", r.Scenario, r.Description)
	b.WriteString(renderGrouped(
		[]string{"bang-bang", "opportunistic-DRL"},
		[]*oic.Histogram{&r.BBHist, &r.DRLHist}))
	if n := r.BBHist.Underflow + r.DRLHist.Underflow; n > 0 {
		fmt.Fprintf(&b, "saving < 0%%:   bang-bang %d, DRL %d cases\n", r.BBHist.Underflow, r.DRLHist.Underflow)
	}
	if n := r.BBHist.Overflow + r.DRLHist.Overflow; n > 0 {
		fmt.Fprintf(&b, "saving = 100%% (zero-cost run): bang-bang %d, DRL %d cases\n", r.BBHist.Overflow, r.DRLHist.Overflow)
	}
	fmt.Fprintf(&b, "\nmean %s saving:   bang-bang %6.2f%%   DRL %6.2f%%%s\n",
		r.CostLabel, r.BBMeanPct, r.DRLMeanPct, paperNoteFig4(r.Plant, "mean"))
	fmt.Fprintf(&b, "mean energy saving: bang-bang %6.2f%%   DRL %6.2f%%   (Σ‖u‖₁, Problem 1)\n",
		r.BBEnergyPct, r.DRLEnergyPct)
	fmt.Fprintf(&b, "mean skipped steps per 100 (DRL): %.1f%s\n", r.SkipsPer100, paperNoteFig4(r.Plant, "skips"))
	fmt.Fprintf(&b, "safety violations: %d (Theorem 1 requires 0)\n", r.Violations)
	return b.String()
}

// RenderSeries formats a ladder sweep as a terminal report.
func RenderSeries(r *SeriesResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — plant %q (%d cases per scenario, %d steps)\n",
		r.Title, r.Plant, r.Cases, r.Steps)
	if r.PaperNote != "" {
		fmt.Fprintf(&b, "%s\n", r.PaperNote)
	}
	b.WriteString("\n")
	labels := make([]string, len(r.Points))
	values := make([]float64, len(r.Points))
	for i, pt := range r.Points {
		labels[i] = pt.ID
		values[i] = pt.DRLSavingPct
	}
	b.WriteString(renderSeries(labels, values))
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %-26s %12s %12s %10s %6s\n",
		"ID", "setting", "DRL "+r.CostLabel+" %", "BB "+r.CostLabel+" %", "skips/100", "viol")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-8s %-26s %12.2f %12.2f %10.1f %6d\n",
			pt.ID, pt.Detail, pt.DRLSavingPct, pt.BBSavingPct, pt.SkipsPer100, pt.Violations)
	}
	return b.String()
}

// RenderTiming formats the computation-time analysis.
func RenderTiming(r *oic.TimingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section IV-A — computation-time analysis on plant %q (%d cases)\n\n", r.Plant, r.Cases)
	note := func(s string) string {
		if r.Plant != "acc" {
			return ""
		}
		return s
	}
	fmt.Fprintf(&b, "κ compute per step:           %12v%s\n", time.Duration(r.CtrlPerStepNS), note("   (paper: 0.12 s on their i7)"))
	fmt.Fprintf(&b, "monitor + policy per step:    %12v%s\n", time.Duration(r.MonitorPerStepNS), note("   (paper: 0.02 s)"))
	fmt.Fprintf(&b, "skipped steps per 100 (DRL):  %12.1f%s\n", r.SkipsPer100, note("   (paper: 79.4)"))
	fmt.Fprintf(&b, "computation-time saving:      %11.1f%%%s\n", r.ComputeSavingPct, note("   (paper: ≈60%)"))
	return b.String()
}

// RenderTable1 formats a scenario ladder with measured savings.
func RenderTable1(r *oic.Table1Report) string {
	var b strings.Builder
	b.WriteString("Table I — scenario settings with measured savings\n\n")
	fmt.Fprintf(&b, "%-8s %-26s %14s %14s\n", "ID", "setting", "DRL saving %", "BB saving %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-26s %14.2f %14.2f\n", row.ID, row.Detail, row.DRLSavingPct, row.BBSavingPct)
	}
	return b.String()
}

// CSVFig4 renders per-case savings as CSV.
func CSVFig4(r *Fig4Result) string {
	var b strings.Builder
	b.WriteString("case,bb_saving_pct,drl_saving_pct\n")
	for i := range r.BBSavings {
		fmt.Fprintf(&b, "%d,%.4f,%.4f\n", i, r.BBSavings[i], r.DRLSavings[i])
	}
	return b.String()
}

// CSVSeries renders a sweep as CSV (RFC 4180 quoting — Detail is
// arbitrary per-plant text).
func CSVSeries(r *SeriesResult) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write([]string{"id", "setting", "drl_saving_pct", "bb_saving_pct", "drl_energy_saving_pct", "skips_per_100", "violations"})
	for _, pt := range r.Points {
		w.Write([]string{
			pt.ID, pt.Detail,
			fmt.Sprintf("%.4f", pt.DRLSavingPct), fmt.Sprintf("%.4f", pt.BBSavingPct),
			fmt.Sprintf("%.4f", pt.DRLEnergyPct), fmt.Sprintf("%.2f", pt.SkipsPer100),
			fmt.Sprintf("%d", pt.Violations),
		})
	}
	w.Flush()
	return b.String()
}
