package trace

import (
	"fmt"
	"testing"

	"oic/internal/core"
)

// benchTrace builds a synthetic 128-step, 2×1-dimensional episode — the
// ACC shape at the server's typical trace length.
func benchTrace(b *testing.B) *Trace {
	b.Helper()
	const steps = 128
	rec := NewRecorder(Meta{Plant: "acc", Scenario: "Fig.4", Policy: "bang-bang"},
		[]float64{130, 45}, 1, 0)
	for i := 0; i < steps; i++ {
		f := float64(i)
		if err := rec.Append(Step{Ran: i%3 == 0, Forced: i%7 == 0, Level: core.Level(i % 2),
			W: []float64{0.5 - f/steps, 0.1}, U: []float64{f / 17}, X: []float64{130 - f/3, 45 - f/9}}); err != nil {
			b.Fatal(err)
		}
	}
	return rec.Trace()
}

// BenchmarkTraceEncode measures serializing one 128-step episode to the
// canonical binary form.
func BenchmarkTraceEncode(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecode measures parsing + validating the same episode —
// the per-request cost floor of the replay endpoint's input handling.
func BenchmarkTraceDecode(b *testing.B) {
	tr := benchTrace(b)
	raw, err := Encode(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderAppend measures the raw recording hook: one step into
// the flat arenas (the cost a traced session adds per step, minus the
// facade plumbing).
func BenchmarkRecorderAppend(b *testing.B) {
	x := []float64{130, 45}
	st := Step{Ran: true, W: []float64{0.5, 0.1}, U: []float64{1.25}, X: x}
	rec := NewRecorder(Meta{Plant: "acc"}, x, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(1<<16) == 0 {
			// Restart periodically so arena growth, not resident size,
			// is what's measured.
			b.StopTimer()
			rec = NewRecorder(Meta{Plant: "acc"}, x, 1, 0)
			b.StartTimer()
		}
		if err := rec.Append(st); err != nil {
			b.Fatal(err)
		}
	}
	if rec.Len() == 0 {
		b.Fatal(fmt.Errorf("recorder empty"))
	}
}
