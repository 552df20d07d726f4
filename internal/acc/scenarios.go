package acc

import (
	"fmt"

	"oic/internal/traffic"
)

// Scenario describes one of the paper's experimental settings: a front-
// vehicle behaviour pattern plus the v_f design range used to build the
// safety sets.
type Scenario struct {
	ID          string // "Ex.1" … "Ex.10" or "Fig.4"
	Description string
	VfMin       float64
	VfMax       float64
	Profile     traffic.Profile
}

// Fig4Scenario is the headline experiment (Section IV-A): sinusoidal front
// speed per Eq. 8 with v_e = 40, a_f = 9, disturbance w ∈ [−1, 1].
func Fig4Scenario() Scenario {
	return Scenario{
		ID:          "Fig.4",
		Description: "sinusoidal front vehicle, Eq. 8 (a_f=9, w∈[−1,1])",
		VfMin:       VfMin,
		VfMax:       VfMax,
		Profile: traffic.Sinusoid{
			VE: VE, Amp: 9, Noise: 1, Delta: Delta, Min: VfMin, Max: VfMax,
		},
	}
}

// Table1Scenarios are Ex.1–Ex.5 (Table I): bounded-acceleration random
// front vehicle (v_f′ ∈ [−20, 20]) over shrinking speed ranges.
func Table1Scenarios() []Scenario {
	ranges := [][2]float64{
		{30, 50},     // Ex.1
		{32.5, 47.5}, // Ex.2
		{35, 45},     // Ex.3
		{38, 42},     // Ex.4
		{39, 41},     // Ex.5
	}
	out := make([]Scenario, len(ranges))
	for i, r := range ranges {
		out[i] = Scenario{
			ID:          fmt.Sprintf("Ex.%d", i+1),
			Description: fmt.Sprintf("bounded-random v_f ∈ [%g, %g], |v_f′| ≤ 20", r[0], r[1]),
			VfMin:       r[0],
			VfMax:       r[1],
			Profile: traffic.BoundedRandom{
				Min: r[0], Max: r[1], AccelMax: 20, Delta: Delta,
			},
		}
	}
	return out
}

// RegularityScenarios are Ex.6–Ex.10 (Fig. 6): the same v_f range [30, 50]
// with increasing regularity of the front vehicle's behaviour.
func RegularityScenarios() []Scenario {
	return []Scenario{
		{
			ID:          "Ex.6",
			Description: "purely random v_f (instant drastic changes)",
			VfMin:       VfMin, VfMax: VfMax,
			Profile: traffic.PureRandom{Min: VfMin, Max: VfMax},
		},
		{
			ID:          "Ex.7",
			Description: "continuous random v_f (same setting as Ex.1)",
			VfMin:       VfMin, VfMax: VfMax,
			Profile: traffic.BoundedRandom{Min: VfMin, Max: VfMax, AccelMax: 20, Delta: Delta},
		},
		{
			ID:          "Ex.8",
			Description: "sinusoid a_f=5 with large disturbance w∈[−5,5]",
			VfMin:       VfMin, VfMax: VfMax,
			Profile: traffic.Sinusoid{VE: VE, Amp: 5, Noise: 5, Delta: Delta, Min: VfMin, Max: VfMax},
		},
		{
			ID:          "Ex.9",
			Description: "sinusoid a_f=8 with disturbance w∈[−2,2]",
			VfMin:       VfMin, VfMax: VfMax,
			Profile: traffic.Sinusoid{VE: VE, Amp: 8, Noise: 2, Delta: Delta, Min: VfMin, Max: VfMax},
		},
		{
			ID:          "Ex.10",
			Description: "sinusoid a_f=9 with disturbance w∈[−1,1] (most regular)",
			VfMin:       VfMin, VfMax: VfMax,
			Profile: traffic.Sinusoid{VE: VE, Amp: 9, Noise: 1, Delta: Delta, Min: VfMin, Max: VfMax},
		},
	}
}

// ModelFor returns the case-study model whose safety sets are designed
// for the scenario's v_f range, memoized per range (SharedModel).
func ModelFor(sc Scenario) (*Model, error) {
	return SharedModel(Config{VfMin: sc.VfMin, VfMax: sc.VfMax})
}
