package journal

import (
	"testing"

	"oic/internal/trace"
)

func benchStep() *Record {
	return &Record{
		Type: TypeStep, ID: "s-1", NX: 2, NU: 1, Step: trace.Step{Ran: true, Level: 1,
			W: []float64{0.1, -0.2}, U: []float64{0.75}, X: []float64{9.8, -0.4}},
	}
}

// BenchmarkJournalEncode is the pure codec cost of one step record —
// the irreducible CPU floor under every append.
func BenchmarkJournalEncode(b *testing.B) {
	r := benchStep()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendRecord(buf[:0], r)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend measures the full hot-path append (encode +
// buffered write) per fsync policy. The policy sweep is the
// EXPERIMENTS.md journaling-overhead table; SyncEveryStep pays one
// fsync per op, SyncEveryTick amortizes one fsync over a simulated
// 64-member tick, SyncNone is the buffered floor.
func BenchmarkJournalAppend(b *testing.B) {
	r := benchStep()
	open := &Record{Type: TypeOpen, ID: "s-1",
		Meta: trace.Meta{Plant: "acc", Scenario: "acc-default", Policy: "always-run"},
		NX:   2, NU: 1, X0: []float64{10, -0.5}}
	run := func(b *testing.B, policy SyncPolicy, tickEvery int) {
		w, err := OpenWriter(Options{Dir: b.TempDir(), Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		if err := w.Append(open); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Append(r); err != nil {
				b.Fatal(err)
			}
			if tickEvery > 0 && i%tickEvery == tickEvery-1 {
				if err := w.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, SyncNone, 0) })
	b.Run("tick64", func(b *testing.B) { run(b, SyncEveryTick, 64) })
	b.Run("step", func(b *testing.B) { run(b, SyncEveryStep, 0) })
}

// BenchmarkJournalRecover measures replay-to-image speed: fold a
// 10k-step single-session journal back into a SessionState.
func BenchmarkJournalRecover(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWriter(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	open := &Record{Type: TypeOpen, ID: "s-1",
		Meta: trace.Meta{Plant: "acc", Scenario: "acc-default", Policy: "always-run"},
		NX:   2, NU: 1, X0: []float64{10, -0.5}}
	if err := w.Append(open); err != nil {
		b.Fatal(err)
	}
	r := benchStep()
	for i := 0; i < 10000; i++ {
		if err := w.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv, err := Recover(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(rv.Sessions) != 1 || len(rv.Sessions[0].Steps) != 10000 {
			b.Fatal("bad recovery")
		}
	}
}
