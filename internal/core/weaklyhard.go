package core

import (
	"fmt"

	"oic/internal/mat"
	"oic/internal/poly"
)

// MaxConsecutiveSkips returns the largest k such that x lies in skipSets[k-1]
// (the S_k chain from reach.ConsecutiveSkipSets), i.e. the number of
// consecutive control skips that are provably safe from x without further
// monitoring. It returns 0 when even a single skip is not certified.
func MaxConsecutiveSkips(skipSets []*poly.Polytope, x mat.Vec, tol float64) int {
	// The chain is monotone decreasing, so scan from the deepest budget.
	for k := len(skipSets); k >= 1; k-- {
		if skipSets[k-1].Contains(x, tol) {
			return k
		}
	}
	return 0
}

// BudgetPolicy skips only while a safety margin of at least MinBudget
// consecutive future skips is certified by the skip-set chain. Compared
// with bang-bang (which rides the X′ boundary and provokes hard forced
// corrections), it backs off earlier, trading a few extra controller runs
// for gentler interventions — an ablation point between always-run and
// bang-bang.
type BudgetPolicy struct {
	SkipSets  []*poly.Polytope // from reach.ConsecutiveSkipSets
	MinBudget int              // skip while budget ≥ MinBudget (≥ 1)
	Tol       float64          // membership tolerance (default 1e-9)
}

// Decide implements SkipPolicy.
func (p *BudgetPolicy) Decide(_ int, x mat.Vec, _ []mat.Vec) bool {
	tol := p.Tol
	if tol == 0 {
		tol = 1e-9
	}
	min := p.MinBudget
	if min < 1 {
		min = 1
	}
	return MaxConsecutiveSkips(p.SkipSets, x, tol) < min
}

// Name implements SkipPolicy.
func (p *BudgetPolicy) Name() string { return fmt.Sprintf("budget(>=%d)", p.MinBudget) }

// WindowMisses returns, over recorded steps, the maximum number of
// skipped controls (z = 0) in any window of k consecutive steps — the
// quantity bounded by an (m, k) weakly-hard constraint. It returns 0 for
// windows longer than the recording.
func WindowMisses(steps []Step, k int) int {
	if k <= 0 || len(steps) < k {
		return 0
	}
	misses := 0
	for i := 0; i < k; i++ {
		if !steps[i].Ran {
			misses++
		}
	}
	max := misses
	for i := k; i < len(steps); i++ {
		if !steps[i].Ran {
			misses++
		}
		if !steps[i-k].Ran {
			misses--
		}
		if misses > max {
			max = misses
		}
	}
	return max
}

// SatisfiesMK reports whether the executed skip pattern satisfies the
// (m, k) weakly-hard constraint "at most m misses in any k consecutive
// instances" (Hamdaoui & Ramanathan's notation, the paper's reference [4]).
func SatisfiesMK(steps []Step, m, k int) bool {
	return WindowMisses(steps, k) <= m
}
