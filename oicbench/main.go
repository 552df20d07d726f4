// Command oicbench measures the served oicd path end to end: it boots a
// fresh oicd shard (preloaded golden artifact, write-ahead journal)
// behind a one-node oicd-router, drives one workload through the router
// from this separate load-generator process, checks every answer, and
// prints the workload's metrics with a JSON summary as the last line.
// With -trace 1 it instead prints per-layer metrics: self times from
// /metrics histogram deltas around the window, and a single-worker
// in-process replay of the same inputs through pkg/oic. See README.md.
//
//	bash oicbench/run.sh --workload fleet-kappa --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"oic/pkg/oic"

	// Register the plants the golden artifacts name.
	_ "oic/internal/acc"
	_ "oic/internal/thermo"
)

// setupsPerSegment is how many throwaway deployments an untraced run sets
// up after each window segment, besides the one that serves the window.
// setup_s is the median over all of them: spread over the whole run, the
// samples follow the host's load over the run rather than over the few
// seconds a block of consecutive set-ups would take.
const setupsPerSegment = 4

type options struct {
	workload string
	seed     int64
	trace    bool
	bench    string // the benchmark's directory (pins.json)
	bin      string // built oicd and oicd-router
	work     string // scratch space inside the checkout
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see pins.json)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Int("seconds", 0, "accepted and ignored: a run measures the fixed tick counts pinned in pins.json")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	flag.StringVar(&o.bench, "bench", "oicbench", "benchmark directory")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the built oicd and oicd-router")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for artifacts, journals and logs")
	flag.Parse()
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	res, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "oicbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	notes    map[string]string
	printed  map[string]metric // shown on the metric lines but left out of the summary
}

func (r *result) set(name, unit string, v float64, note string) {
	r.Metrics[name] = metric{v, unit}
	r.notes[name] = note
}

// show prints a metric without putting it in the summary: wall-clock
// metrics follow the hypervisor's steal time on a shared host, and their
// run-to-run spread is too wide for them to gate a change.
func (r *result) show(name, unit string, v float64, note string) {
	r.printed[name] = metric{v, unit}
	r.notes[name] = note + " (not in the summary)"
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(ctx context.Context, o options) (*result, error) {
	p, err := loadPins(filepath.Join(o.bench, "pins.json"))
	if err != nil {
		return nil, err
	}
	sp, ok := p.Workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	warm, window := sp.Warmup, sp.Window
	if o.trace {
		window = sp.TraceWindow
	}
	if window%sp.Segment != 0 {
		return nil, fmt.Errorf("%s: the window must be whole segments", o.workload)
	}

	// Inputs: everything is generated before the first boot.
	art, err := loadArtifact(filepath.Join(p.GoldenDir, sp.Artifact), sp.SHA256)
	if err != nil {
		return nil, err
	}
	eng, err := oic.LoadEngine(art)
	if err != nil {
		return nil, err
	}
	in, err := makeInputs(eng, sp, o.seed, warm+window)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := seedStore(filepath.Join(dir, "artifacts"), art); err != nil {
		return nil, err
	}
	runtime.GC() // leave no collection of the generator's running into set-up

	dep, fid, first, err := setUp(ctx, o, dir, in, sp, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()
	setups := []setupTime{first}
	var between func() error
	if !o.trace { // traced runs report no set-up time
		between = func() error {
			for j := 0; j < setupsPerSegment; j++ {
				side, _, st, err := setUp(ctx, o, dir, in, sp, len(setups))
				if err != nil {
					return err
				}
				side.stop()
				setups = append(setups, st)
			}
			return nil
		}
	}

	a := newAPI()
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}, printed: map[string]metric{}}
	if built, err := shardCounter(ctx, a, dep, "oicd_engines_built_total"); err != nil {
		return nil, err
	} else if built != 0 {
		res.fail("oicd compiled %d engines during setup: the create missed the preloaded artifact", built)
	}
	s, err := driveFleet(ctx, a, dep, fid, in, sp, warm, window, o.trace, between)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	if s.failed > 0 {
		res.fail("%d of %d requests failed", s.failed, s.attempted)
	}
	if s.violations > 0 {
		res.fail("%d safety violations", s.violations)
	}

	if o.trace {
		dep.stop() // free both cores for the replay
		dep = nil
		rp, err := replay(ctx, art, sp, in, o.seed, warm, window)
		if err != nil {
			return nil, err
		}
		tracedMetrics(res, in, s, rp)
	} else {
		appends, err := shardCounter(ctx, a, dep, "oicd_journal_appends_total")
		if err != nil {
			return nil, err
		}
		endToEnd(res, s, in, setups)
		checkRecord(res, p, o, sp, record{Lanes: fmt.Sprintf("%x", s.lanes.Sum(nil)), JournalAppends: appends})
	}
	res.Correct = len(res.problems) == 0
	fmt.Printf("oicbench %s seed %d: warm-up %d + window %d ticks, %d member-steps per tick; host CPU steal %.1f%% during the window\n",
		o.workload, o.seed, warm, window, in.steps, 100*s.steal)
	lines := maps.Clone(res.Metrics)
	maps.Copy(lines, res.printed)
	for _, name := range slices.Sorted(maps.Keys(lines)) {
		m := lines[name]
		fmt.Printf("  %-24s %14.6g %-6s %s\n", name, m.Value, m.Unit, res.notes[name])
	}
	for _, pr := range res.problems {
		fmt.Fprintln(os.Stderr, "oicbench: check failed:", pr)
		fmt.Printf("  CHECK FAILED: %s\n", pr)
	}
	return res, nil
}

// setupTime is one set-up: starting oicd until the fleet exists.
type setupTime struct {
	wall time.Duration
	cpu  time.Duration // on-CPU time of oicd and oicd-router since they started
}

// setUp boots deployment k and creates the workload's fleet through its
// router, returning how long that took. A fresh client makes the create,
// so its connection is not left to the caller's.
func setUp(ctx context.Context, o options, dir string, in *inputs, sp *spec, k int) (*deployment, string, setupTime, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	a := newAPI()
	defer a.c.CloseIdleConnections()
	start := time.Now()
	dep, err := boot(ctx, o.bin, dir, k)
	if err != nil {
		return nil, "", setupTime{}, fmt.Errorf("setup %d: %w", k, err)
	}
	fid, err := createFleet(ctx, a, dep, in, sp, o.seed)
	st := setupTime{wall: time.Since(start)}
	for _, pid := range dep.pids() {
		c, cerr := onCPU(pid)
		st.cpu += c
		err = errors.Join(err, cerr)
	}
	if err != nil {
		dep.stop()
		return nil, "", setupTime{}, fmt.Errorf("setup %d: %w", k, err)
	}
	return dep, fid, st, nil
}

// checkRecord compares an untraced run's work with the record pinned in
// pins.json for its seed or, for a seed not pinned there, with the record the
// first correct run of that seed left in the checkout. A run that failed
// any other check leaves no record behind.
func checkRecord(res *result, p *pins, o options, sp *spec, got record) {
	if want, ok := p.Recorded[o.workload][fmt.Sprint(o.seed)]; ok {
		if got != want {
			res.fail("work differs from the pinned record for seed %d: got %+v, want %+v", o.seed, got, want)
		}
		return
	}
	path := recordPath(o.work, o.workload, o.seed, sp.Warmup, sp.Window)
	if b, err := os.ReadFile(path); err == nil {
		var want record
		if err := json.Unmarshal(b, &want); err != nil || got != want {
			res.fail("work differs from an earlier run of seed %d (%s): got %+v", o.seed, path, got)
		}
		return
	}
	if len(res.problems) > 0 {
		return
	}
	b, _ := json.Marshal(got)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		_ = os.WriteFile(path, b, 0o644) // a missing record only skips the next run's comparison
	}
}

// endToEnd sets the user-visible metrics of an untraced run.
func endToEnd(res *result, s *served, in *inputs, setups []setupTime) {
	var cpu, wall []float64
	for _, st := range setups {
		cpu, wall = append(cpu, st.cpu.Seconds()), append(wall, st.wall.Seconds())
	}
	res.set("setup_s", "s", median(cpu),
		fmt.Sprintf("(oicd + oicd-router on-CPU time, median of %d set-ups: the window's, then %d after each segment; wall time median %.4f s)",
			len(setups), setupsPerSegment, median(wall)))
	res.show("steps_per_s", "1/s", segmentRate(s, in, s.segWall),
		fmt.Sprintf("(median of %d segments; %d steps in %.3f s of window)", len(s.segWall), len(s.lat)*in.steps, s.wall.Seconds()))
	res.set("steps_per_cpu_s", "1/s", segmentRate(s, in, s.segCPU),
		fmt.Sprintf("(median of %d segments; %.2f CPU-s of oicd + oicd-router)", len(s.segCPU), sumDur(s.segCPU).Seconds()))
	n := len(s.lat)
	for _, pct := range []int{50, 99} {
		name := fmt.Sprintf("latency_p%d_ms", pct)
		v, err := percentile(append([]float64(nil), s.lat...), pct)
		if err != nil {
			res.fail("%s: %v", name, err)
			continue
		}
		res.show(name, "ms", v, fmt.Sprintf("(n=%d requests, %d beyond)", n, n-(pct*n+99)/100))
	}
	res.set("rss_mb", "MiB", float64(s.rss)/(1<<20), "(Σ VmHWM of oicd + oicd-router: peak over the run)")
	res.set("reclaimed_ratio", "ratio", float64(s.reclaimed)/float64(n*in.steps), "((skips + shed) / steps over the window)")
}

// segmentRate is the median over window segments of steps per unit of
// the given per-segment duration.
func segmentRate(s *served, in *inputs, per []time.Duration) float64 {
	steps := float64(len(s.lat)*in.steps) / float64(len(per))
	rates := make([]float64, len(per))
	for i, d := range per {
		rates[i] = steps / d.Seconds()
	}
	return median(rates)
}

func sumDur(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// tracedMetrics sets the per-layer metrics and checks that the replay and
// the served run did identical work.
func tracedMetrics(res *result, in *inputs, s *served, rp *replayed) {
	n := float64(len(s.lat))
	var latSum float64
	for _, l := range s.lat {
		latSum += l
	}
	clientMS := latSum / n

	hist := func(i int, name string) histDelta {
		h, err := histogramDelta(s.before[i], s.after[i], name)
		if err != nil {
			res.fail("%v", err)
		}
		return h
	}
	proxy := hist(0, "oicd_router_proxy_seconds")
	appendH := hist(1, "oicd_journal_append_seconds")
	syncH := hist(1, "oicd_journal_sync_seconds")
	gc, err := delta(s.before[1], s.after[1], "go_gc_pause_seconds_total")
	if err != nil {
		res.fail("%v", err)
	}

	// The router's own prober scrapes the shard's /metrics through the
	// same histogram about once a second; take those round trips out at
	// the cost the benchmark's own shard scrapes measured.
	probes := proxy.Count - n
	var scrape time.Duration
	for _, d := range s.scrapeLat {
		scrape += d
	}
	probeS := 0.0
	if len(s.scrapeLat) > 0 && probes > 0 {
		probeS = probes * scrape.Seconds() / float64(len(s.scrapeLat))
	}
	proxyMS := (proxy.Sum - probeS) / n * 1e3

	var el time.Duration // the shard's handler work: Fleet.Tick per request
	for _, r := range s.reports[len(s.reports)-len(s.lat):] {
		el += r.Elapsed
	}
	handlerMS := el.Seconds() / n * 1e3
	syncMS := syncH.Sum / n * 1e3

	served := []struct {
		name, unit string
		ms         float64
		note       string
	}{
		{"router.hop_ms", "ms", clientMS - proxyMS, "(client latency − router→shard round trip)"},
		{"server.http_ms", "ms", proxyMS - handlerMS - syncMS, "(round trip − handler − fsync)"},
		{"oic.tick_ms", "ms", handlerMS, "(handler per request: Fleet.Tick elapsed_ns)"},
		{"journal.sync_us", "us", syncMS, "(fsync time per request)"},
	}
	var sum float64
	for _, r := range served {
		v := r.ms
		if r.unit == "us" {
			v *= 1e3
		}
		if r.ms < 0 {
			res.fail("self time %s is negative (%.4f ms): the sources disagree", r.name, r.ms)
		}
		sum += r.ms
		res.set(r.name, r.unit, v, r.note)
	}
	res.set("traced.latency_ms", "ms", clientMS, fmt.Sprintf("(mean of %d requests; served rows sum to %.6f)", len(s.lat), sum))
	res.set("traced.steps_per_s", "1/s", segmentRate(s, in, s.segWall), "(compare with the untraced steps_per_s: tracing overhead)")
	res.set("oic.step_us", "us", handlerMS*1e3/float64(in.steps), "(handler time per member-step)")
	res.set("journal.append_us", "us", appendH.Mean()*1e6, fmt.Sprintf("(%v appends)", appendH.Count))
	res.set("journal.appends", "count", appendH.Count/n, "(records per request)")
	res.set("runtime.gc_pause_ms", "ms", gc*1e3/n, "(oicd GC pause per request)")

	// The in-process replay must have done exactly the served work.
	for t, r := range rp.reports {
		g := s.reports[t]
		if g.Sessions != r.Sessions || g.Skips != r.Skips || g.Computes != r.Computes ||
			g.Forced != r.Forced || g.Shed != r.Shed || g.Overrun != r.Overrun || g.Violations != r.Violations {
			res.fail("tick %d: served lanes %+v differ from the replay's %+v", t, g, r)
			break
		}
	}
	if len(rp.final) != len(s.final) {
		res.fail("served %d final states, replayed %d", len(s.final), len(rp.final))
	} else {
		for i := range rp.final {
			if string(rp.final[i]) != string(s.final[i]) {
				res.fail("member %d final state: served %s, replay %s", i, s.final[i], rp.final[i])
				break
			}
		}
	}

	ticks := float64(rp.ticks)
	tickMS := rp.tick.Seconds() * 1e3 / ticks
	res.set("fleet.tick_ms", "ms", tickMS, "(in-process single-worker tick; the fleet rows sum to it)")
	res.set("fleet.pre_step_ms", "ms", rp.pre.Seconds()*1e3/ticks, "(Tick entry → first step hook: stage, decide, plan)")
	res.set("fleet.post_step_ms", "ms", rp.post.Seconds()*1e3/ticks, "(last step hook → Tick return)")
	res.set("fleet.lane_skip_us", "us", perCall(rp.skip, rp.nSkip), fmt.Sprintf("(%d skip/shed steps)", rp.nSkip))
	res.set("fleet.lane_compute_us", "us", perCall(rp.compute, rp.nCompute), fmt.Sprintf("(%d κ steps)", rp.nCompute))
	res.set("decide.monitor_us", "us", perCall(rp.monitor, rp.nDecide), "(Engine.Level per state)")
	res.set("decide.skip_budget_us", "us", perCall(rp.skipBudget, rp.nDecide), "(Engine.SkipBudget per state)")
	var comp, forced, shed, skips int
	for _, r := range rp.reports[len(rp.reports)-rp.ticks:] {
		comp, forced, shed, skips = comp+r.Computes, forced+r.Forced, shed+r.Shed, skips+r.Skips
	}
	res.set("fleet.computes", "count", float64(comp)/ticks, "(per tick)")
	res.set("fleet.forced", "count", float64(forced)/ticks, "(per tick)")
	res.set("fleet.shed", "count", float64(shed)/ticks, "(per tick)")
	res.set("fleet.skips", "count", float64(skips)/ticks, "(per tick)")
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(n)
}
