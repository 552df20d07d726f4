package exp

import (
	"encoding/csv"
	"fmt"
	"strings"

	"oic/internal/stats"
)

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
		r.CostLabel, r.Plant, r.Cases, r.Opt.Steps)
	fmt.Fprintf(&b, "scenario %s: %s\n\n", r.Scenario.ID, r.Scenario.Description)
	b.WriteString(stats.RenderGrouped(
		[]string{"bang-bang", "opportunistic-DRL"},
		[]*stats.Histogram{r.BBHist, r.DRLHist}, 40))
	if n := r.BBHist.Underflow + r.DRLHist.Underflow; n > 0 {
		fmt.Fprintf(&b, "saving < 0%%:   bang-bang %d, DRL %d cases\n", r.BBHist.Underflow, r.DRLHist.Underflow)
	}
	if n := r.BBHist.Overflow + r.DRLHist.Overflow; n > 0 {
		fmt.Fprintf(&b, "saving = 100%% (zero-cost run): bang-bang %d, DRL %d cases\n", r.BBHist.Overflow, r.DRLHist.Overflow)
	}
	fmt.Fprintf(&b, "\nmean %s saving:   bang-bang %6.2f%%   DRL %6.2f%%%s\n",
		r.CostLabel, r.BBMean, r.DRLMean, paperNoteFig4(r.Plant, "mean"))
	fmt.Fprintf(&b, "mean energy saving: bang-bang %6.2f%%   DRL %6.2f%%   (Σ‖u‖₁, Problem 1)\n",
		r.BBEnergy, r.DRLEnergy)
	fmt.Fprintf(&b, "mean skipped steps per 100 (DRL): %.1f%s\n", r.SkipsDRL, paperNoteFig4(r.Plant, "skips"))
	fmt.Fprintf(&b, "safety violations: %d (Theorem 1 requires 0)\n", r.Violations)
	return b.String()
}

// RenderSeries formats a ladder sweep as a terminal report.
func RenderSeries(r *SeriesResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — plant %q (%d cases per scenario, %d steps)\n",
		r.Ladder.Title, r.Plant, r.Opt.Cases, r.Opt.Steps)
	if r.Ladder.PaperNote != "" {
		fmt.Fprintf(&b, "%s\n", r.Ladder.PaperNote)
	}
	b.WriteString("\n")
	labels := make([]string, len(r.Points))
	values := make([]float64, len(r.Points))
	for i, pt := range r.Points {
		labels[i] = pt.Scenario.ID
		values[i] = pt.DRLSaving
	}
	b.WriteString(stats.RenderSeries(labels, values, "%", 40))
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %-26s %12s %12s %10s %6s\n",
		"ID", "setting", "DRL "+r.CostLabel+" %", "BB "+r.CostLabel+" %", "skips/100", "viol")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%-8s %-26s %12.2f %12.2f %10.1f %6d\n",
			pt.Scenario.ID, pt.Scenario.Detail,
			pt.DRLSaving, pt.BBSaving, pt.SkipsDRL, pt.Violations)
	}
	return b.String()
}

// RenderTiming formats the computation-time analysis.
func RenderTiming(r *TimingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section IV-A — computation-time analysis on plant %q (%d cases)\n\n", r.Plant, r.Opt.Cases)
	note := func(s string) string {
		if r.Plant != "acc" {
			return ""
		}
		return s
	}
	fmt.Fprintf(&b, "κ compute per step:           %12v%s\n", r.CtrlPerStep, note("   (paper: 0.12 s on their i7)"))
	fmt.Fprintf(&b, "monitor + policy per step:    %12v%s\n", r.MonitorPerStep, note("   (paper: 0.02 s)"))
	fmt.Fprintf(&b, "skipped steps per 100 (DRL):  %12.1f%s\n", r.SkipsPer100, note("   (paper: 79.4)"))
	fmt.Fprintf(&b, "computation-time saving:      %11.1f%%%s\n", r.ComputeSaving, note("   (paper: ≈60%)"))
	return b.String()
}

// RenderTable1 formats a scenario ladder with measured savings.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table I — scenario settings with measured savings\n\n")
	fmt.Fprintf(&b, "%-8s %-26s %14s %14s\n", "ID", "setting", "DRL saving %", "BB saving %")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s %-26s %14.2f %14.2f\n",
			row.Scenario.ID, row.Scenario.Detail, row.DRLSaving, row.BBSaving)
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
			pt.Scenario.ID, pt.Scenario.Detail,
			fmt.Sprintf("%.4f", pt.DRLSaving), fmt.Sprintf("%.4f", pt.BBSaving),
			fmt.Sprintf("%.4f", pt.DRLEnergy), fmt.Sprintf("%.2f", pt.SkipsDRL),
			fmt.Sprintf("%d", pt.Violations),
		})
	}
	w.Flush()
	return b.String()
}
