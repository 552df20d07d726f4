package oic

import (
	"context"
	"runtime"
	"testing"
	"time"

	"oic/internal/journal"
	"oic/internal/obs"
)

// BenchmarkSessionStep measures one facade step on the RMPC hot path
// (always-run, warm resolves after the first step) — the per-request cost
// floor of the oicd server before HTTP overhead.
func BenchmarkSessionStep(b *testing.B) {
	e := accEngine(b)
	x0, w, err := e.DrawCase(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := e.NewSession(x0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(ctx, w[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStepInstrumented is BenchmarkSessionStep plus exactly
// the observability the oicd server adds per step: one latency-histogram
// Observe, mirroring internal/server's observeSteps. The CI gate holds
// ns/op here within 1.05× of the bare BenchmarkSessionStep, pinning the
// instrumentation tax near zero.
func BenchmarkSessionStepInstrumented(b *testing.B) {
	e := accEngine(b)
	x0, w, err := e.DrawCase(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := e.NewSession(x0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	hist := obs.NewHistogram("bench_step_seconds", "instrumented step latency", obs.LatencyBuckets())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := s.Step(ctx, w[0]); err != nil {
			b.Fatal(err)
		}
		hist.Observe(time.Since(start).Seconds())
	}
	b.StopTimer()
	if got := hist.Count(); got != uint64(b.N) {
		b.Fatalf("histogram count %d, want %d", got, b.N)
	}
}

// BenchmarkStepBatch measures advancing a fleet of pooled sessions one
// step through the worker pool — the server's batched-stepping throughput
// shape. Reported per session-step (64 per iteration).
func BenchmarkStepBatch(b *testing.B) {
	e := accEngine(b)
	const fleet = 64
	items := make([]BatchStep, fleet)
	for i := range items {
		x0, w, err := e.DrawCase(int64(i+1), 1)
		if err != nil {
			b.Fatal(err)
		}
		s, err := e.NewSession(x0)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		items[i] = BatchStep{Session: s, W: w[0]}
	}
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.StepBatch(ctx, items, workers)
		for j := range res {
			if res[j].Error != "" {
				b.Fatal(res[j].Error)
			}
		}
	}
	b.StopTimer()
	perStep := float64(b.Elapsed().Nanoseconds()) / float64(b.N*fleet)
	b.ReportMetric(perStep, "ns/session-step")
}

// BenchmarkFleetTick is the acceptance benchmark of the opportunistic
// fleet scheduler: 1000 ACC sessions advance one control period per
// iteration on a budget sized for fewer than 100 worst-case κ computes
// per tick. The engine runs the always-run policy — every session
// requests κ every tick, the worst case for the scheduler — so the
// budget's priority queue does all the work: the ~96 most urgent sessions
// (lowest remaining S_k budget) compute, the rest shed into safe skips.
// ns/op is the tick latency to compare against the plant's 100 ms control
// period; reclaimed-ratio is the fraction of worst-case κ provisioning
// the scheduler handed back; computes/op and ns/compute price the κ
// computes the timed ticks scheduled (reportComputes).
func BenchmarkFleetTick(b *testing.B) {
	e := accEngine(b)
	const sessions, budget, traceLen = 1000, 96, 128
	f, err := e.NewFleet(FleetConfig{ComputeBudget: budget, MaxSessions: sessions})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ring := admitRing(b, e, f, sessions, traceLen)
	computes := tickRing(b, f, ring, nil)
	st := f.Stats()
	b.ReportMetric(st.ReclaimedRatio, "reclaimed-ratio")
	b.ReportMetric(st.Utilization, "budget-utilization")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*sessions), "ns/session-step")
	reportComputes(b, computes)
	if st.Violations != 0 {
		b.Fatalf("%d violations across %d ticks", st.Violations, st.Ticks)
	}
}

// BenchmarkFleetTickDRL is oicbench's fleet-decide shape in process: the
// golden thermo-drl engine decoded and loaded from its artifact (no
// training), 2000 members, budget 96. Thermo's κ is an affine law, so the
// tick is mostly the decide lane (per member the monitor, the S_k oracle
// and a DQN forward pass) and the skip lane; allocs/op shows that lane
// allocation-free, leaving the ~3 allocations per affine κ compute.
func BenchmarkFleetTickDRL(b *testing.B) {
	a, err := DecodeArtifact(goldenArtifactBytes(b, "thermo-drl"))
	if err != nil {
		b.Fatal(err)
	}
	e, err := LoadEngine(a)
	if err != nil {
		b.Fatal(err)
	}
	const sessions, budget, traceLen = 2000, 96, 128
	f, err := e.NewFleet(FleetConfig{ComputeBudget: budget, MaxSessions: sessions})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ring := admitRing(b, e, f, sessions, traceLen)
	tickRing(b, f, ring, nil)
	st := f.Stats()
	b.ReportMetric(st.ReclaimedRatio, "reclaimed-ratio")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*sessions), "ns/session-step")
}

// admitRing admits sessions members with initial states from
// DrawCase(i+1, traceLen) and returns the ring of traceLen per-tick
// disturbance maps drawn with them, so a measured loop only schedules and
// steps.
func admitRing(b *testing.B, e *Engine, f *Fleet, sessions, traceLen int) []map[int][]float64 {
	b.Helper()
	ids := make([]int, sessions)
	traces := make([][][]float64, sessions)
	for i := range ids {
		x0, w, err := e.DrawCase(int64(i+1), traceLen)
		if err != nil {
			b.Fatal(err)
		}
		if ids[i], err = f.Admit(x0); err != nil {
			b.Fatal(err)
		}
		traces[i] = w
	}
	ring := make([]map[int][]float64, traceLen)
	for tk := range ring {
		ws := make(map[int][]float64, sessions)
		for i, id := range ids {
			ws[id] = traces[i][tk]
		}
		ring[tk] = ws
	}
	return ring
}

// tickRing is the measured loop of the fleet benchmarks: one untimed pass
// over the ring, so every member's κ workspace is allocated and warm
// before the clock starts and all fleet benchmarks time the same steady
// state, then b.N timed ticks over it. Each tick is followed by perTick
// when it is set; any tick error or safety violation fails the
// benchmark. It returns the κ computes the timed ticks scheduled.
func tickRing(b *testing.B, f *Fleet, ring []map[int][]float64, perTick func()) int64 {
	b.Helper()
	ctx := context.Background()
	tick := func(i int) {
		rep, err := f.Tick(ctx, ring[i%len(ring)])
		if err != nil {
			b.Fatal(err)
		}
		if rep.Violations != 0 {
			b.Fatalf("tick %d: %d safety violations", i, rep.Violations)
		}
		if perTick != nil {
			perTick()
		}
	}
	for i := range ring {
		tick(i)
	}
	before := f.Stats().Computes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i)
	}
	b.StopTimer()
	return f.Stats().Computes - before
}

// reportComputes reports the κ computes the timed ticks scheduled per tick
// and the time per compute, which compares two fleets on equal work even
// where their budgets, and so their computes per tick, differ.
func reportComputes(b *testing.B, computes int64) {
	b.ReportMetric(float64(computes)/float64(b.N), "computes/op")
	if computes > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(computes), "ns/compute")
	}
}

// BenchmarkFleetTickElastic is BenchmarkFleetTick with the elastic-budget
// controller in the loop: same 1000 ACC sessions, but every tick feeds
// its measured deadline margin through the internal/budget PI law and
// retunes the next tick's budget. The bounds are pinned Min = Max =
// budget, so the controller runs every tick but the budget never leaves
// 96, and over the same window this fleet schedules the static fleet's
// computes (computes/op equal). The CI gate compares ns/compute: per
// scheduled κ compute, the regulation tax — Controller.Update plus the
// admission-coupling recompute, O(1) arithmetic per tick — is held within
// 1.05× of BenchmarkFleetTick.
func BenchmarkFleetTickElastic(b *testing.B) {
	e := accEngine(b)
	const sessions, budget, traceLen = 1000, 96, 128
	f, err := e.NewFleet(FleetConfig{
		ComputeBudget: budget,
		MaxSessions:   sessions,
		TickDeadline:  100 * time.Millisecond,
		Elastic:       &ElasticConfig{MinBudget: budget, MaxBudget: budget},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ring := admitRing(b, e, f, sessions, traceLen)
	computes := tickRing(b, f, ring, nil)
	st := f.Stats()
	b.ReportMetric(st.ReclaimedRatio, "reclaimed-ratio")
	b.ReportMetric(float64(st.Budget), "final-budget")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*sessions), "ns/session-step")
	reportComputes(b, computes)
	if st.Violations != 0 {
		b.Fatalf("%d violations across %d ticks", st.Violations, st.Ticks)
	}
}

// BenchmarkFleetTickJournaled is BenchmarkFleetTick with oicd's crash
// journaling on at the production fleet policy (sync=tick): every member
// step appends a TypeFleetStep record through the fleet step hook and
// each tick ends with one fsync, exactly what the server does per tick
// request under -journal-dir. The CI gate holds ns/op here within 1.15×
// of the unjournaled BenchmarkFleetTick, pinning the durability tax.
func BenchmarkFleetTickJournaled(b *testing.B) {
	e := accEngine(b)
	const sessions, budget, traceLen = 1000, 96, 128
	f, err := e.NewFleet(FleetConfig{ComputeBudget: budget, MaxSessions: sessions})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	jw, err := journal.OpenWriter(journal.Options{Dir: b.TempDir(), Policy: journal.SyncEveryTick})
	if err != nil {
		b.Fatal(err)
	}
	defer jw.Close()
	nx, nu := e.NX(), e.NU()
	f.SetStepHook(func(member int, ev StepEvent) {
		rec := journal.Record{
			Type: journal.TypeFleetStep, ID: "f-bench", Member: uint32(member), NX: nx, NU: nu, Step: ev,
		}
		if err := jw.Append(&rec); err != nil {
			b.Error(err)
		}
	})
	ring := admitRing(b, e, f, sessions, traceLen)
	tickRing(b, f, ring, func() {
		if err := jw.Sync(); err != nil {
			b.Fatal(err)
		}
	})
	// The journal also holds the untimed warm-up pass, so normalize by
	// every tick the fleet ran.
	st, ticks := jw.Stats(), float64(f.Stats().Ticks)
	b.ReportMetric(float64(st.Appends)/ticks, "journal-appends/tick")
	b.ReportMetric(float64(st.Bytes)/(ticks*sessions), "journal-bytes/session-step")
}

// BenchmarkTraceRecord measures the per-step cost of episode recording on
// the skip-heavy hot path (bang-bang policy): a traced facade step is the
// untraced one plus one flag byte and three bounded arena appends. The
// session is recycled every 4 Ki steps so the recording (not the episode
// length) is what's measured.
func BenchmarkTraceRecord(b *testing.B) {
	e, err := NewEngine(Config{Plant: "acc", Policy: PolicyBangBang})
	if err != nil {
		b.Fatal(err)
	}
	x0, w, err := e.DrawCase(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var s *Session
	open := func() {
		var err error
		if s, err = e.NewSession(x0); err != nil {
			b.Fatal(err)
		}
		if err := s.StartTrace(0); err != nil {
			b.Fatal(err)
		}
	}
	open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%4096 == 0 {
			b.StopTimer()
			s.Close()
			open()
			b.StartTimer()
		}
		if _, err := s.Step(ctx, w[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures replay throughput: one 128-step always-run ACC
// episode (κ solves at every step — the worst case; skip-heavy logs
// replay orders of magnitude faster) re-executed and diffed per
// iteration. steps/s is the replay-service throughput number.
func BenchmarkReplay(b *testing.B) {
	e := accEngine(b)
	const steps = 128
	x0, w, err := e.DrawCase(1, steps)
	if err != nil {
		b.Fatal(err)
	}
	s, err := e.NewSession(x0)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.StartTrace(0); err != nil {
		b.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), w); err != nil {
		b.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Replay(tr, ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Diff.Identical {
			b.Fatal("replay diverged")
		}
	}
	b.StopTimer()
	perStep := float64(b.Elapsed().Nanoseconds()) / float64(b.N*steps)
	b.ReportMetric(perStep, "ns/step")
	b.ReportMetric(1e9/perStep, "steps/s")
}

// BenchmarkFleetAdmission measures the admission-control path: XI
// membership check plus a pooled-workspace acquire/release cycle.
func BenchmarkFleetAdmission(b *testing.B) {
	e := accEngine(b)
	f, err := e.NewFleet(FleetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	x0, _, err := e.DrawCase(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := f.Admit(x0)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Evict(id); err != nil {
			b.Fatal(err)
		}
	}
}
