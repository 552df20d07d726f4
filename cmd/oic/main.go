// Command oic regenerates the paper's evaluation artifacts on any
// registered plant (-plant, default the adaptive cruise control case
// study):
//
//	oic plants  — list the registered plants and their scenario ladders
//	oic fig4    — savings histogram on the headline scenario (paper Fig. 4)
//	oic fig5    — savings across the plant's primary scenario ladder (Fig. 5)
//	oic fig6    — savings across the secondary ladder, if any (Fig. 6)
//	oic table1  — primary-ladder settings with measured savings (Table I)
//	oic timing  — Section IV-A computation-time analysis
//	oic sets    — the safety sets X ⊇ XI ⊇ X′ (Fig. 1)
//	oic budget  — the multi-step strengthened sets S_k behind the fleet's
//	              skip-budget oracle
//	oic fleet   — sweep fleet sizes against a per-tick compute budget and
//	              report the achievable sessions-per-core curve (DESIGN.md §7);
//	              with -elastic, run the largest size continuously under the
//	              deadline-margin budget controller against an injected
//	              CPU-noise phase and compare with the static budget
//	              (DESIGN.md §13)
//	oic record  — run one seeded episode with tracing on and write the
//	              trace file (-out; canonical binary, or JSON with -trace-json)
//	oic replay  — replay a recorded trace file (-trace) under the same or a
//	              substituted policy (-replay-policy) / compute budget
//	              (-replay-budget) and report the diff (DESIGN.md §8)
//	oic export  — compile the configured engine and persist it as a .oica
//	              artifact (-out and/or a content-addressed -artifact-dir
//	              store) for warm oicd boots and `oic import` (DESIGN.md §9)
//	oic import  — load a .oica artifact (-artifact), verify it reconstructs
//	              a serving engine, and optionally file it into -artifact-dir
//	oic journal — inspect an oicd write-ahead journal directory
//	              (-journal-dir): fold its segments and report every
//	              session and fleet with its replay position (DESIGN.md §10)
//	oic cluster — operate a multi-node oicd cluster through its router:
//	              status, drain, live migration, and ops (recent
//	              migration/failover/recovery spans, phase by phase;
//	              DESIGN.md §11–§12); the router address comes from
//	              -addr, then $OICD_ADDR
//	oic all     — everything above except fleet, record, replay, export,
//	              import, and journal
//
// Every experiment is seeded and deterministic for a fixed -seed and
// -workers-independent. Use -csv to additionally emit raw per-case data.
// With -json, each command emits one machine-readable JSON document per
// result (the pkg/oic report wire types) on stdout — banners and timing
// move to stderr — so CI and dashboards consume structured output instead
// of scraping text. Flags may appear before or after the subcommand.
//
// The CLI is a client of the public pkg/oic facade: the engines it builds
// (compiled safety sets, parametric LP, trained policy) are the same ones
// the oicd server caches and serves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"oic/internal/exp"
	"oic/internal/fault"
	"oic/internal/journal"
	"oic/internal/plant"
	"oic/internal/reach"
	"oic/pkg/oic"

	// Register the case studies.
	_ "oic/internal/acc"
	_ "oic/internal/orbit"
	_ "oic/internal/thermo"
)

func main() {
	fs := flag.NewFlagSet("oic", flag.ExitOnError)
	cases := fs.Int("cases", 500, "evaluation cases per scenario")
	steps := fs.Int("steps", 0, "control steps per episode (0 = plant default)")
	seed := fs.Int64("seed", 1, "random seed")
	train := fs.Int("train", 500, "DRL training episodes per scenario")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	csv := fs.String("csv", "", "directory to write raw CSV data into")
	plantName := fs.String("plant", "acc", "plant to evaluate (see 'oic plants')")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON results on stdout (banners go to stderr)")
	fleetBudget := fs.Int("budget", 96, "fleet: κ-compute budget per tick")
	fleetTicks := fs.Int("ticks", 50, "fleet: ticks per fleet run")
	fleetSizes := fs.String("fleet-sizes", "250,500,1000,2000", "fleet: comma-separated fleet sizes to sweep")
	deadline := fs.Duration("deadline", 100*time.Millisecond, "fleet: real-time tick deadline (the plant's control period)")
	elasticRun := fs.Bool("elastic", false, "fleet: continuous elastic-budget run on the largest -fleet-sizes entry against an injected CPU-noise phase, compared with the static budget (DESIGN.md §13)")
	noiseRate := fs.Float64("noise", 0.8, "fleet -elastic: probability each middle-third tick carries injected CPU noise (fault site sched.noise)")
	policy := fs.String("policy", oic.PolicyBangBang, "record: skipping policy (always-run, bang-bang, drl)")
	scenario := fs.String("scenario", "", "record: scenario ID (empty = plant headline)")
	outFile := fs.String("out", "", "record: trace output file")
	traceJSON := fs.Bool("trace-json", false, "record: write the trace as JSON instead of canonical binary")
	traceFile := fs.String("trace", "", "replay: recorded trace file (binary or JSON, sniffed)")
	replayPolicy := fs.String("replay-policy", "", "replay: substitute policy (empty = the trace's)")
	replayBudget := fs.Int("replay-budget", 0, "replay: cap total κ computes (0 = unlimited; forced computes always run)")
	auditFlag := fs.Bool("audit", true, "replay: re-verify the recorded trace with the offline auditor")
	artifactFile := fs.String("artifact", "", "import: compiled engine artifact file (.oica)")
	artifactDir := fs.String("artifact-dir", "", "export/import: also write the artifact into this content-addressed store (oicd -artifact-dir)")
	journalDir := fs.String("journal-dir", "", "journal: oicd write-ahead journal directory to inspect")

	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: oic [flags] plants|fig4|fig5|fig6|table1|timing|sets|budget|fleet|record|replay|export|import|journal|cluster|all [flags]\n\n")
		fs.PrintDefaults()
	}
	// Parse flags first, then take the first positional argument as the
	// subcommand; re-parse whatever follows it so flags are accepted both
	// before and after the subcommand. (Scanning for the first non-flag
	// token would mistake flag *values* for the subcommand: in
	// `oic -csv out fig4`, "out" is -csv's value, not the subcommand.)
	// With ExitOnError, Parse exits on a bad flag itself.
	fs.Parse(os.Args[1:])
	cmd := fs.Arg(0)
	if cmd == "" {
		fs.Usage()
		os.Exit(2)
	}
	if cmd == "cluster" {
		// Cluster verbs parse their own flags (they take a router address,
		// not a plant), so they dispatch before the generic re-parse.
		doCluster(fs.Args()[1:])
		return
	}
	if fs.NArg() > 1 {
		fs.Parse(fs.Args()[1:])
		if fs.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "oic: unexpected extra argument %q\n", fs.Arg(0))
			os.Exit(2)
		}
	}

	// emit prints a result: one JSON document in -json mode, the rendered
	// text report otherwise.
	emit := func(doc any, text string) error {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			return enc.Encode(doc)
		}
		fmt.Print(text)
		return nil
	}

	if cmd == "plants" {
		if *jsonOut {
			// Same shape as oicd's GET /v1/plants, so one consumer parses both.
			if err := emit(map[string]any{"plants": oic.Plants()}, ""); err != nil {
				fmt.Fprintf(os.Stderr, "oic: %v\n", err)
				os.Exit(1)
			}
			return
		}
		listPlants()
		return
	}

	if cmd == "replay" {
		// Replay needs no -plant: the trace fingerprints its own engine.
		if *traceFile == "" {
			fmt.Fprintln(os.Stderr, "oic: replay requires -trace FILE")
			os.Exit(2)
		}
		tr, err := loadTrace(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oic: %v\n", err)
			os.Exit(1)
		}
		rep, err := oic.Replay(tr, oic.ReplayOptions{
			Policy: *replayPolicy, ComputeBudget: *replayBudget, Audit: *auditFlag,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "oic: replay: %v\n", err)
			os.Exit(1)
		}
		if err := emit(rep, renderReplay(tr, rep)); err != nil {
			fmt.Fprintf(os.Stderr, "oic: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if cmd == "import" {
		// Import needs no -plant: the artifact fingerprints its own engine.
		if *artifactFile == "" {
			fmt.Fprintln(os.Stderr, "oic: import requires -artifact FILE")
			os.Exit(2)
		}
		if err := doImport(*artifactFile, *artifactDir, emit); err != nil {
			fmt.Fprintf(os.Stderr, "oic: import: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if cmd == "journal" {
		// Journal inspection needs no -plant: the records carry their own
		// engine fingerprints.
		if *journalDir == "" {
			fmt.Fprintln(os.Stderr, "oic: journal requires -journal-dir DIR")
			os.Exit(2)
		}
		if err := doJournal(*journalDir, emit); err != nil {
			fmt.Fprintf(os.Stderr, "oic: journal: %v\n", err)
			os.Exit(1)
		}
		return
	}

	p, err := plant.Get(*plantName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oic: %v\n", err)
		os.Exit(2)
	}

	opt := exp.Options{
		Cases: *cases, Steps: *steps, Seed: *seed,
		TrainEpisodes: *train, Workers: *workers,
	}

	// Banners and completion lines go to stderr in -json mode so stdout
	// stays a clean JSON stream.
	banner := os.Stdout
	if *jsonOut {
		banner = os.Stderr
	}
	run := func(name string, f func() error) {
		t0 := time.Now()
		fmt.Fprintf(banner, "== %s [%s] ==\n", name, p.Name())
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "oic: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(banner, "(%s completed in %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	writeCSV := func(name, content string) error {
		if *csv == "" {
			return nil
		}
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
		}
		return os.WriteFile(*csv+"/"+name, []byte(content), 0o644)
	}

	doFig4 := func() error {
		r, err := exp.Fig4(p, opt)
		if err != nil {
			return err
		}
		if err := emit(r.Fig4Report, exp.RenderFig4(r)); err != nil {
			return err
		}
		return writeCSV("fig4.csv", exp.CSVFig4(r))
	}
	ladder := func(i int) (plant.Ladder, error) {
		ls := p.Ladders()
		if i >= len(ls) {
			return plant.Ladder{}, fmt.Errorf("plant %s has %d scenario ladder(s), no #%d", p.Name(), len(ls), i+1)
		}
		return ls[i], nil
	}
	doSweep := func(i int, csvName string, withTable bool) func() error {
		return func() error {
			l, err := ladder(i)
			if err != nil {
				return err
			}
			r, err := exp.Sweep(p, l, opt)
			if err != nil {
				return err
			}
			if err := emit(r.SeriesReport, exp.RenderSeries(r)); err != nil {
				return err
			}
			if withTable {
				table := exp.Table1FromSeries(r)
				if err := emit(table, "\n"+exp.RenderTable1(table)); err != nil {
					return err
				}
			}
			return writeCSV(csvName, exp.CSVSeries(r))
		}
	}
	doTable1 := func() error {
		table, err := exp.Table1(p, opt)
		if err != nil {
			return err
		}
		return emit(table, exp.RenderTable1(table))
	}
	doTiming := func() error {
		r, err := exp.Timing(p, opt)
		if err != nil {
			return err
		}
		return emit(r, exp.RenderTiming(r))
	}

	// headlineEngine builds the facade engine the set inspections read
	// from — the same artifact set oicd would cache for this plant.
	headlineEngine := func() (*oic.Engine, error) {
		return oic.NewEngine(oic.Config{Plant: p.Name(), Policy: oic.PolicyBangBang})
	}
	doSets := func() error {
		eng, err := headlineEngine()
		if err != nil {
			return err
		}
		sets := eng.SafetySets()
		type setDoc struct {
			Name       string    `json:"name"`
			Halfspaces int       `json:"halfspaces"`
			Lo         []float64 `json:"lo,omitempty"`
			Hi         []float64 `json:"hi,omitempty"`
		}
		var docs []setDoc
		var b strings.Builder
		printSet := func(name string, rows int, loHi func() ([]float64, []float64, error)) {
			lo, hi, err := loHi()
			if err != nil {
				fmt.Fprintf(&b, "%-3s: error: %v\n", name, err)
				docs = append(docs, setDoc{Name: name, Halfspaces: rows})
				return
			}
			var dims []string
			for d := range lo {
				dims = append(dims, fmt.Sprintf("x%d∈[%.2f, %.2f]", d, lo[d], hi[d]))
			}
			fmt.Fprintf(&b, "%-3s: %2d halfspaces, bounding box %s\n", name, rows, strings.Join(dims, ", "))
			docs = append(docs, setDoc{Name: name, Halfspaces: rows, Lo: lo, Hi: hi})
		}
		fmt.Fprintf(&b, "safety sets of plant %q (Fig. 1: X' ⊆ XI ⊆ X):\n", p.Name())
		printSet("X", sets.X.NumRows(), sets.X.BoundingBox)
		printSet("XI", sets.XI.NumRows(), sets.XI.BoundingBox)
		printSet("X'", sets.XPrime.NumRows(), sets.XPrime.BoundingBox)
		ok1, _ := sets.XI.Covers(sets.XPrime, 1e-6)
		ok2, _ := sets.X.Covers(sets.XI, 1e-6)
		fmt.Fprintf(&b, "nesting verified: X' ⊆ XI: %v, XI ⊆ X: %v\n", ok1, ok2)
		if a, err := sets.XPrime.Volume2D(); err == nil {
			if bb, err := sets.XI.Volume2D(); err == nil && bb > 0 {
				fmt.Fprintf(&b, "area: X' %.1f, XI %.1f (skipping admissible on %.1f%% of XI)\n", a, bb, 100*a/bb)
			}
		}
		return emit(map[string]any{
			"kind": "sets", "plant": p.Name(), "sets": docs,
			"nested": ok1 && ok2,
		}, b.String())
	}
	doBudget := func() error {
		eng, err := headlineEngine()
		if err != nil {
			return err
		}
		chain, err := reach.ConsecutiveSkipSets(eng.SafetySets().XI, eng.System(), 8)
		if err != nil {
			return err
		}
		type skipDoc struct {
			K          int     `json:"k"`
			Halfspaces int     `json:"halfspaces"`
			Area       float64 `json:"area,omitempty"`
		}
		var docs []skipDoc
		var b strings.Builder
		fmt.Fprintf(&b, "multi-step strengthened sets S_k of plant %q (k consecutive skips certified):\n", p.Name())
		for k, s := range chain {
			line := fmt.Sprintf("  S%-2d %2d halfspaces", k+1, s.NumRows())
			doc := skipDoc{K: k + 1, Halfspaces: s.NumRows()}
			if area, err := s.Volume2D(); err == nil {
				line += fmt.Sprintf(", area %8.1f", area)
				doc.Area = area
			}
			fmt.Fprintln(&b, line)
			docs = append(docs, doc)
		}
		return emit(map[string]any{"kind": "budget", "plant": p.Name(), "sets": docs}, b.String())
	}

	// doFleetSweep runs the opportunistic fleet scheduler at each fleet
	// size against the fixed compute budget and reports whether a tick
	// fits the real-time deadline — the system-level form of the paper's
	// Table I savings: how many sessions one machine serves because
	// skipped computations are reclaimed capacity.
	doFleetSweep := func() error {
		eng, err := headlineEngine()
		if err != nil {
			return err
		}
		sizes, err := parseFleetSizes(*fleetSizes)
		if err != nil {
			return err
		}
		type point struct {
			Sessions       int     `json:"sessions"`
			MeanTickMS     float64 `json:"mean_tick_ms"`
			MaxTickMS      float64 `json:"max_tick_ms"`
			Utilization    float64 `json:"utilization"`
			ReclaimedRatio float64 `json:"reclaimed_ratio"`
			Shed           int64   `json:"shed"`
			Violations     int     `json:"violations"`
			RealTime       bool    `json:"real_time"`
		}
		var pts []point
		var b strings.Builder
		fmt.Fprintf(&b, "fleet sweep on plant %q: budget %d κ-computes/tick, %d ticks, deadline %v\n",
			p.Name(), *fleetBudget, *fleetTicks, *deadline)
		fmt.Fprintf(&b, "(real-time = worst steady-state tick ≤ deadline; tick 0 pays the one-time cold solves and is excluded)\n")
		fmt.Fprintf(&b, "%9s %12s %12s %12s %11s %9s %6s %s\n",
			"sessions", "mean tick", "max tick", "utilization", "reclaimed", "shed", "viol", "real-time")
		achievable := 0
		for _, size := range sizes {
			// Real-time means the *worst* steady-state tick fits the
			// control period — a tick over the deadline is a missed control
			// deadline, however good the mean.
			var meanNS, maxNS float64
			steady := max(*fleetTicks-1, 1)
			st, err := runFleet(eng, oic.FleetConfig{ComputeBudget: *fleetBudget, MaxSessions: size},
				size, *fleetTicks, *seed, nil, func(_ int, rep oic.TickReport) {
					ns := float64(rep.Elapsed.Nanoseconds())
					meanNS += ns / float64(steady)
					maxNS = max(maxNS, ns)
				})
			if err != nil {
				return err
			}
			pt := point{
				Sessions:       size,
				MeanTickMS:     meanNS / 1e6,
				MaxTickMS:      maxNS / 1e6,
				Utilization:    st.Utilization,
				ReclaimedRatio: st.ReclaimedRatio,
				Shed:           st.Shed,
				Violations:     st.Violations,
				RealTime:       maxNS <= float64(deadline.Nanoseconds()),
			}
			pts = append(pts, pt)
			if pt.RealTime && size > achievable {
				achievable = size
			}
			fmt.Fprintf(&b, "%9d %10.2fms %10.2fms %12.2f %10.1f%% %9d %6d %v\n",
				pt.Sessions, pt.MeanTickMS, pt.MaxTickMS, pt.Utilization,
				100*pt.ReclaimedRatio, pt.Shed, pt.Violations, pt.RealTime)
		}
		cores := runtime.NumCPU()
		perCore := float64(achievable) / float64(cores)
		fmt.Fprintf(&b, "achievable in real time: %d sessions on %d cores = %.0f sessions/core\n",
			achievable, cores, perCore)
		return emit(map[string]any{
			"kind": "fleet", "plant": p.Name(),
			"compute_budget": *fleetBudget, "ticks": *fleetTicks,
			"deadline_ms":         float64(deadline.Nanoseconds()) / 1e6,
			"points":              pts,
			"achievable_sessions": achievable,
			"cores":               cores,
			"sessions_per_core":   perCore,
		}, b.String())
	}

	// doFleetElastic runs one large fleet continuously under the
	// elastic-budget controller (DESIGN.md §13) with a CPU-noise phase in
	// the middle third of the run — noisy ticks chosen by the seeded fault
	// injector (site sched.noise), so the disturbance schedule is identical
	// across both runs — then repeats the same workload under the static
	// budget and compares. The claim under test: the controller holds the
	// deadline margin ≥ 0 through the disturbance by shrinking the budget,
	// hands the compute back afterwards, and never sheds a forced compute,
	// so safety stays Theorem 1's (violations = 0).
	doFleetElastic := func() error {
		eng, err := headlineEngine()
		if err != nil {
			return err
		}
		sizes, err := parseFleetSizes(*fleetSizes)
		if err != nil {
			return err
		}
		size := slices.Max(sizes)
		ticks := max(*fleetTicks, 6)
		noiseFrom, noiseTo := ticks/3, 2*ticks/3
		loBudget := max(*fleetBudget/4, 1)

		// The shared disturbance schedule: both runs burn CPU on exactly
		// the same ticks, decided once up front by the seeded injector.
		noisy := make([]bool, ticks)
		noisyCount := 0
		inj := fault.New(*seed)
		inj.Enable(fault.SiteSchedNoise, *noiseRate)
		for tk := noiseFrom; tk < noiseTo; tk++ {
			if inj.Hit(fault.SiteSchedNoise) != nil {
				noisy[tk] = true
				noisyCount++
			}
		}

		// burn spins half the cores through a noisy tick — the co-tenant
		// stealing CPU from the scheduler's worker pool — and returns the
		// function that stops them.
		spinners := max(runtime.NumCPU()/2, 1)
		burn := func(tk int) func() {
			if !noisy[tk] {
				return func() {}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for range spinners {
				wg.Add(1)
				go func() {
					defer wg.Done()
					x := uint64(1)
					for {
						select {
						case <-stop:
							runtime.KeepAlive(x)
							return
						default:
						}
						for i := 0; i < 1<<14; i++ {
							x = x*2862933555777941757 + 3037000493
						}
					}
				}()
			}
			return func() {
				close(stop)
				wg.Wait()
			}
		}

		type phaseDoc struct {
			Phase      string  `json:"phase"`
			Ticks      int     `json:"ticks"`
			MarginOK   float64 `json:"margin_ok"` // fraction of ticks with deadline margin ≥ 0
			MinBudget  int     `json:"min_budget"`
			MeanBudget float64 `json:"mean_budget"`
			MaxBudget  int     `json:"max_budget"`
			Shed       int     `json:"shed"`
			Degraded   int     `json:"degraded"`
		}
		type runDoc struct {
			Mode                 string     `json:"mode"`
			Phases               []phaseDoc `json:"phases"`
			MarginOK             float64    `json:"margin_ok"`
			Violations           int        `json:"violations"`
			BudgetRaises         int64      `json:"budget_raises,omitempty"`
			BudgetLowers         int64      `json:"budget_lowers,omitempty"`
			EffectiveMaxSessions int        `json:"effective_max_sessions,omitempty"`
		}
		phaseNames := [3]string{"calm", "noise", "calm"}
		phaseOf := func(tk int) int {
			switch {
			case tk < noiseFrom:
				return 0
			case tk < noiseTo:
				return 1
			default:
				return 2
			}
		}

		runOnce := func(elastic bool) (runDoc, error) {
			cfg := oic.FleetConfig{ComputeBudget: *fleetBudget, MaxSessions: size, TickDeadline: *deadline}
			doc := runDoc{Mode: "static"}
			if elastic {
				cfg.Elastic = &oic.ElasticConfig{MinBudget: loBudget, MaxBudget: *fleetBudget * 2}
				doc.Mode = "elastic"
			}
			var phases [3]phaseDoc
			marginOK := make([]int, 3)
			for ph := range phases {
				phases[ph].Phase = phaseNames[ph]
				phases[ph].MinBudget = int(^uint(0) >> 1)
			}
			okTotal, counted := 0, 0
			st, err := runFleet(eng, cfg, size, ticks, *seed, burn, func(tk int, rep oic.TickReport) {
				ph := &phases[phaseOf(tk)]
				ph.Ticks++
				counted++
				if rep.DeadlineMargin >= 0 {
					marginOK[phaseOf(tk)]++
					okTotal++
				}
				ph.MinBudget = min(ph.MinBudget, rep.Budget)
				ph.MaxBudget = max(ph.MaxBudget, rep.Budget)
				ph.MeanBudget += float64(rep.Budget)
				ph.Shed += rep.Shed
				ph.Degraded += rep.Degraded
			})
			if err != nil {
				return doc, err
			}
			for ph := range phases {
				if phases[ph].Ticks > 0 {
					phases[ph].MarginOK = float64(marginOK[ph]) / float64(phases[ph].Ticks)
					phases[ph].MeanBudget /= float64(phases[ph].Ticks)
				} else {
					phases[ph].MinBudget = 0
				}
			}
			doc.Phases = phases[:]
			if counted > 0 {
				doc.MarginOK = float64(okTotal) / float64(counted)
			}
			doc.Violations = st.Violations
			doc.BudgetRaises = st.BudgetRaises
			doc.BudgetLowers = st.BudgetLowers
			doc.EffectiveMaxSessions = st.EffectiveMaxSessions
			return doc, nil
		}

		elasticDoc, err := runOnce(true)
		if err != nil {
			return err
		}
		staticDoc, err := runOnce(false)
		if err != nil {
			return err
		}

		var b strings.Builder
		fmt.Fprintf(&b, "fleet elastic run on plant %q: %d sessions, %d ticks, deadline %v, budget %d (elastic %d..%d)\n",
			p.Name(), size, ticks, *deadline, *fleetBudget, loBudget, *fleetBudget*2)
		fmt.Fprintf(&b, "CPU noise: ticks %d..%d at rate %.2f → %d noisy ticks, %d spinner cores (fault site %s, seed %d)\n",
			noiseFrom, noiseTo-1, *noiseRate, noisyCount, spinners, fault.SiteSchedNoise, *seed)
		fmt.Fprintf(&b, "(tick 0 pays the one-time cold solves and is excluded)\n")
		fmt.Fprintf(&b, "%-8s %-6s %6s %9s %22s %8s %9s\n",
			"mode", "phase", "ticks", "margin≥0", "budget min/mean/max", "shed", "degraded")
		for _, doc := range []runDoc{elasticDoc, staticDoc} {
			for _, ph := range doc.Phases {
				fmt.Fprintf(&b, "%-8s %-6s %6d %8.1f%% %8d/%6.1f/%5d %8d %9d\n",
					doc.Mode, ph.Phase, ph.Ticks, 100*ph.MarginOK,
					ph.MinBudget, ph.MeanBudget, ph.MaxBudget, ph.Shed, ph.Degraded)
			}
		}
		fmt.Fprintf(&b, "elastic: margin ≥ 0 on %.1f%% of ticks, %d violations; raises %d, lowers %d; admission cap %d/%d\n",
			100*elasticDoc.MarginOK, elasticDoc.Violations,
			elasticDoc.BudgetRaises, elasticDoc.BudgetLowers,
			elasticDoc.EffectiveMaxSessions, size)
		fmt.Fprintf(&b, "static:  margin ≥ 0 on %.1f%% of ticks, %d violations\n",
			100*staticDoc.MarginOK, staticDoc.Violations)
		return emit(map[string]any{
			"kind": "fleet-elastic", "plant": p.Name(),
			"sessions": size, "ticks": ticks,
			"deadline_ms":    float64(deadline.Nanoseconds()) / 1e6,
			"compute_budget": *fleetBudget,
			"noise_rate":     *noiseRate, "noisy_ticks": noisyCount,
			"runs": []runDoc{elasticDoc, staticDoc},
		}, b.String())
	}

	// doRecord runs one seeded episode with tracing on and writes the
	// trace file — the producer side of the replay service, and the same
	// recipe the golden-trace corpus uses.
	doRecord := func() error {
		if *outFile == "" {
			return fmt.Errorf("record requires -out FILE")
		}
		cfg := oic.Config{Plant: p.Name(), Scenario: *scenario, Policy: *policy}
		if *policy == oic.PolicyDRL {
			cfg.Train = oic.TrainConfig{Episodes: *train}
		}
		eng, err := oic.NewEngine(cfg)
		if err != nil {
			return err
		}
		n := *steps
		if n <= 0 {
			n = eng.EpisodeSteps()
		}
		x0, w, err := eng.DrawCase(*seed, n)
		if err != nil {
			return err
		}
		s, err := eng.NewSession(x0)
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.StartTrace(0); err != nil {
			return err
		}
		if _, err := s.StepMany(context.Background(), w); err != nil {
			return err
		}
		tr, err := s.Trace()
		if err != nil {
			return err
		}
		var b []byte
		if *traceJSON {
			if b, err = json.MarshalIndent(tr, "", " "); err != nil {
				return err
			}
		} else if b, err = oic.EncodeTrace(tr); err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, b, 0o644); err != nil {
			return err
		}
		info := s.Info()
		return emit(map[string]any{
			"kind": "record", "plant": p.Name(), "policy": eng.PolicyName(),
			"scenario": eng.ScenarioID(), "steps": tr.Len(), "bytes": len(b),
			"skips": info.Skips, "runs": info.Runs, "energy": info.Energy,
			"file": *outFile,
		}, fmt.Sprintf("recorded %s/%s under %s: %d steps (%d skips, %d runs, energy %.4g) → %s (%d bytes)\n",
			p.Name(), eng.ScenarioID(), eng.PolicyName(), tr.Len(), info.Skips, info.Runs, info.Energy, *outFile, len(b)))
	}

	// doExport compiles the configured engine (sets, LP, trained policy)
	// and persists it as a portable .oica artifact — the producer side of
	// oicd's warm boot (-artifact-dir -preload) and of `oic import`.
	doExport := func() error {
		if *outFile == "" && *artifactDir == "" {
			return fmt.Errorf("export requires -out FILE and/or -artifact-dir DIR")
		}
		cfg := oic.Config{Plant: p.Name(), Scenario: *scenario, Policy: *policy}
		if *policy == oic.PolicyDRL {
			cfg.Train = oic.TrainConfig{Episodes: *train}
		}
		eng, err := oic.NewEngine(cfg)
		if err != nil {
			return err
		}
		a, err := eng.Artifact()
		if err != nil {
			return err
		}
		b, err := oic.EncodeArtifact(a)
		if err != nil {
			return err
		}
		fp := cfg.Fingerprint()
		if *outFile != "" {
			if err := os.WriteFile(*outFile, b, 0o644); err != nil {
				return err
			}
		}
		stored := ""
		if *artifactDir != "" {
			st, err := oic.OpenArtifactStore(*artifactDir)
			if err != nil {
				return err
			}
			if err := st.Put(fp, a); err != nil {
				return err
			}
			stored = st.Path(fp)
		}
		var text strings.Builder
		fmt.Fprintf(&text, "exported %s: %d bytes (X %d, XI %d, X' %d halfspaces; skip chain S_1..S_%d",
			fp, len(b), a.Sets.X.NumRows(), a.Sets.XI.NumRows(), a.Sets.XPrime.NumRows(), len(a.Chain))
		if a.Policy != nil {
			fmt.Fprintf(&text, "; policy %s %v", a.Policy.Label, a.Policy.Sizes)
		}
		fmt.Fprintf(&text, ")\n")
		if *outFile != "" {
			fmt.Fprintf(&text, "  → %s\n", *outFile)
		}
		if stored != "" {
			fmt.Fprintf(&text, "  → %s\n", stored)
		}
		return emit(map[string]any{
			"kind": "export", "fingerprint": fp, "bytes": len(b),
			"plant": a.Meta.Plant, "scenario": a.Meta.Scenario, "policy": a.Meta.Policy,
			"chain": len(a.Chain), "file": *outFile, "stored": stored,
		}, text.String())
	}

	switch cmd {
	case "fig4":
		run("fig4", doFig4)
	case "fig5":
		run("fig5", doSweep(0, "fig5.csv", false))
	case "fig6":
		run("fig6", doSweep(1, "fig6.csv", false))
	case "table1":
		run("table1", doTable1)
	case "timing":
		run("timing", doTiming)
	case "sets":
		run("sets", doSets)
	case "budget":
		run("budget", doBudget)
	case "fleet":
		if *elasticRun {
			run("fleet -elastic", doFleetElastic)
		} else {
			run("fleet", doFleetSweep)
		}
	case "record":
		run("record", doRecord)
	case "export":
		run("export", doExport)
	case "all":
		run("sets", doSets)
		run("budget", doBudget)
		run("fig4", doFig4)
		run("timing", doTiming)
		run("fig5+table1", doSweep(0, "fig5.csv", true))
		if len(p.Ladders()) > 1 {
			run("fig6", doSweep(1, "fig6.csv", false))
		}
	default:
		fmt.Fprintf(os.Stderr, "oic: unknown command %q\n", cmd)
		fs.Usage()
		os.Exit(2)
	}
}

// doImport loads a compiled engine artifact, verifies it reconstructs a
// serving engine (full codec validation, skip-chain monotonicity, policy
// restore), prints its summary, and optionally files it into a
// content-addressed store for oicd to preload.
func doImport(path, dir string, emit func(doc any, text string) error) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	a, err := oic.DecodeArtifact(b)
	if err != nil {
		return err
	}
	eng, err := oic.LoadEngine(a)
	if err != nil {
		return err
	}
	fp := oic.ConfigFromArtifact(a).Fingerprint()
	stored := ""
	if dir != "" {
		st, err := oic.OpenArtifactStore(dir)
		if err != nil {
			return err
		}
		if err := st.Put(fp, a); err != nil {
			return err
		}
		stored = st.Path(fp)
	}
	var text strings.Builder
	fmt.Fprintf(&text, "imported %s (%d bytes): engine %s/%s under %s, %d×%d system\n",
		path, len(b), a.Meta.Plant, eng.ScenarioID(), eng.PolicyName(), eng.NX(), eng.NU())
	fmt.Fprintf(&text, "  sets X %d, XI %d, X' %d halfspaces; skip chain S_1..S_%d\n",
		a.Sets.X.NumRows(), a.Sets.XI.NumRows(), a.Sets.XPrime.NumRows(), len(a.Chain))
	if a.Policy != nil {
		fmt.Fprintf(&text, "  policy %s, layers %v, memory %d (trained %d episodes, mean reward %.4g)\n",
			a.Policy.Label, a.Policy.Sizes, a.Policy.Memory, a.Train.Episodes, a.Train.MeanReward)
	}
	fmt.Fprintf(&text, "  fingerprint %s\n", fp)
	if stored != "" {
		fmt.Fprintf(&text, "  → %s\n", stored)
	}
	return emit(map[string]any{
		"kind": "import", "fingerprint": fp, "bytes": len(b),
		"plant": a.Meta.Plant, "scenario": a.Meta.Scenario, "policy": a.Meta.Policy,
		"nx": eng.NX(), "nu": eng.NU(), "chain": len(a.Chain), "stored": stored,
	}, text.String())
}

// loadTrace reads a trace file in any encoding a user plausibly saved:
// the canonical binary form (sniffed by its "OICT" magic), a bare JSON
// trace (oic record -trace-json), or the server's GET .../trace response
// (the {"id", "trace"} wrapper, saved straight from curl).
func loadTrace(path string) (*oic.Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) >= 4 && string(b[:4]) == "OICT" {
		return oic.DecodeTrace(b)
	}
	var wrapped oic.TraceResponse
	if err := json.Unmarshal(b, &wrapped); err != nil {
		return nil, fmt.Errorf("%s: not a binary trace and not JSON: %w", path, err)
	}
	tr := wrapped.Trace
	if tr == nil {
		tr = &oic.Trace{}
		if err := json.Unmarshal(b, tr); err != nil {
			return nil, fmt.Errorf("%s: not a binary trace and not JSON: %w", path, err)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// renderReplay formats a replay report for terminals.
func renderReplay(tr *oic.Trace, rep *oic.ReplayReport) string {
	var b strings.Builder
	d := rep.Diff
	fmt.Fprintf(&b, "replay of %s/%s episode (%d steps, recorded under %s)\n",
		rep.Plant, rep.Scenario, tr.Len(), rep.RecordedPolicy)
	fmt.Fprintf(&b, "replayed under %s", rep.ReplayedPolicy)
	if rep.ComputeBudget > 0 {
		fmt.Fprintf(&b, ", compute budget %d (%d shed)", rep.ComputeBudget, rep.Shed)
	}
	fmt.Fprintln(&b)
	if d.Identical {
		fmt.Fprintf(&b, "conformance: IDENTICAL — decisions and states reproduce byte-for-byte\n")
	} else {
		fmt.Fprintf(&b, "diverged: %d decision flips (first at %d), states diverge at step %d, max L∞ %.4g\n",
			d.DecisionFlips, d.FirstFlip, d.DivergeStep, d.MaxStateDivergence)
	}
	fmt.Fprintf(&b, "computes: %d → %d (forced %d → %d)\n", d.ComputesA, d.ComputesB, d.ForcedA, d.ForcedB)
	fmt.Fprintf(&b, "energy:   %.6g → %.6g (Δ %+.4g)\n", d.EnergyA, d.EnergyB, d.EnergyB-d.EnergyA)
	fmt.Fprintf(&b, "safety:   XI margin %.4g → %.4g, violations %d\n",
		rep.SafetyMarginRecorded, rep.SafetyMarginReplayed, rep.Violations)
	if rep.Audit != nil {
		if rep.Audit.Clean {
			fmt.Fprintf(&b, "audit:    recorded trace clean over %d steps\n", rep.Audit.Steps)
		} else {
			fmt.Fprintf(&b, "audit:    %d findings on the recorded trace (first: step %d %s: %s)\n",
				len(rep.Audit.Findings), rep.Audit.Findings[0].Step, rep.Audit.Findings[0].Kind, rep.Audit.Findings[0].Msg)
		}
	}
	fmt.Fprintf(&b, "(replayed in %v)\n", rep.Elapsed.Round(time.Microsecond))
	return b.String()
}

func listPlants() {
	fmt.Println("registered plants:")
	for _, info := range oic.Plants() {
		fmt.Printf("  %-8s %s\n", info.Name, info.Description)
		fmt.Printf("  %-8s headline %s; cost metric %q; %d steps/episode\n",
			"", info.Headline.ID, info.CostLabel, info.EpisodeSteps)
		for _, l := range info.Ladders {
			ids := make([]string, len(l.Scenarios))
			for i, sc := range l.Scenarios {
				ids[i] = sc.ID
			}
			fmt.Printf("  %-8s ladder %q: %s\n", "", l.Name, strings.Join(ids, ", "))
		}
	}
}

// doJournal folds an oicd write-ahead journal directory and reports what a
// recovery would rebuild: every session and fleet the journal knows, its
// replay position, and the directory-level accounting (segments, records,
// torn tails, orphans). Read-only — inspection never truncates a torn
// tail on disk or mutates a segment.
func doJournal(dir string, emit func(doc any, text string) error) error {
	rv, err := journal.Recover(dir)
	if err != nil {
		return err
	}
	rv.SortMembers()
	liveSessions, liveFleets := rv.Live()

	var text strings.Builder
	fmt.Fprintf(&text, "journal %s: %d segment(s), %d record(s)", dir, rv.Segments, rv.Records)
	if rv.TornTails > 0 {
		fmt.Fprintf(&text, ", %d torn tail(s)", rv.TornTails)
	}
	if rv.Orphans > 0 {
		fmt.Fprintf(&text, ", %d orphan record(s)", rv.Orphans)
	}
	fmt.Fprintf(&text, "\n")

	type sessionDoc struct {
		ID     string `json:"id"`
		Plant  string `json:"plant"`
		Policy string `json:"policy"`
		Steps  int    `json:"steps"`
		Closed bool   `json:"closed,omitempty"`
	}
	type fleetDoc struct {
		ID           string             `json:"id"`
		Plant        string             `json:"plant"`
		Policy       string             `json:"policy"`
		Budget       int                `json:"compute_budget"`
		Trace        bool               `json:"trace,omitempty"`
		Degrade      bool               `json:"degrade,omitempty"`
		TickDeadline time.Duration      `json:"tick_deadline_ns,omitempty"`
		Elastic      *oic.ElasticConfig `json:"elastic,omitempty"`
		Members      int                `json:"members"`
		Live         int                `json:"live_members"`
		Steps        int                `json:"steps"`
		Closed       bool               `json:"closed,omitempty"`
	}
	sessions := make([]sessionDoc, 0, len(rv.Sessions))
	for _, st := range rv.Sessions {
		sessions = append(sessions, sessionDoc{
			ID: st.ID, Plant: st.Meta.Plant, Policy: st.Meta.Policy,
			Steps: len(st.Steps), Closed: st.Closed,
		})
		state := "open"
		if st.Closed {
			state = "closed"
		}
		fmt.Fprintf(&text, "  session %-8s %s/%s %s  %4d step(s)  %s\n",
			st.ID, st.Meta.Plant, st.Meta.Scenario, st.Meta.Policy, len(st.Steps), state)
	}
	fleets := make([]fleetDoc, 0, len(rv.Fleets))
	for _, fs := range rv.Fleets {
		live, steps := 0, 0
		for _, m := range fs.Members {
			if !m.Evicted {
				live++
			}
			steps += len(m.Steps)
		}
		doc := fleetDoc{
			ID: fs.ID, Plant: fs.Meta.Plant, Policy: fs.Meta.Policy,
			Budget: fs.Budget, Trace: fs.Traced, Degrade: fs.Degrade, TickDeadline: fs.TickDeadline,
			Members: len(fs.Members), Live: live, Steps: steps, Closed: fs.Closed,
		}
		var knobs strings.Builder
		if fs.ElasticMax > 0 {
			doc.Elastic = &oic.ElasticConfig{MinBudget: fs.ElasticMin, MaxBudget: fs.ElasticMax, TargetMargin: fs.TargetMargin}
			fmt.Fprintf(&knobs, "  elastic [%d, %d] margin %v", fs.ElasticMin, fs.ElasticMax, fs.TargetMargin)
		}
		if fs.TickDeadline > 0 {
			fmt.Fprintf(&knobs, "  deadline %v", fs.TickDeadline)
		}
		if fs.Degrade {
			knobs.WriteString("  degrade")
		}
		if fs.Traced {
			knobs.WriteString("  trace")
		}
		fleets = append(fleets, doc)
		state := "open"
		if fs.Closed {
			state = "closed"
		}
		fmt.Fprintf(&text, "  fleet   %-8s %s/%s %s  budget %d%s  %d member(s) (%d live)  %d step(s)  %s\n",
			fs.ID, fs.Meta.Plant, fs.Meta.Scenario, fs.Meta.Policy,
			fs.Budget, knobs.String(), len(fs.Members), live, steps, state)
	}
	fmt.Fprintf(&text, "  replay-to-head would resume %d session(s) and %d fleet(s)\n",
		liveSessions, liveFleets)

	return emit(map[string]any{
		"kind": "journal", "dir": dir,
		"segments": rv.Segments, "records": rv.Records,
		"torn_tails": rv.TornTails, "orphans": rv.Orphans,
		"live_sessions": liveSessions, "live_fleets": liveFleets,
		"sessions": sessions, "fleets": fleets,
	}, text.String())
}
