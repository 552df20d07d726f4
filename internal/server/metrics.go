package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"oic/internal/journal"
	"oic/internal/obs"
	"oic/pkg/oic"
)

// metrics holds the servable counters: steps, skip decisions, latency,
// session, fleet, and engine lifecycle. All atomics, written on the hot
// path without locks.
type metrics struct {
	sessionsCreated atomic.Int64
	sessionsClosed  atomic.Int64
	sessionsEvicted atomic.Int64
	enginesBuilt    atomic.Int64

	enginesLoaded     atomic.Int64 // engines restored from the artifact store on demand
	artifactPreloaded atomic.Int64 // engines materialized by -preload at boot

	steps      atomic.Int64 // executed steps (single + batched)
	skips      atomic.Int64 // steps with z = 0
	forced     atomic.Int64 // monitor-forced runs
	stepErrors atomic.Int64

	tracesServed atomic.Int64 // recorded traces fetched by clients
	replays      atomic.Int64 // replay requests served
	replayErrors atomic.Int64 // failed replay requests
	replaySteps  atomic.Int64 // steps re-executed by replays

	fleetsCreated atomic.Int64
	fleetsClosed  atomic.Int64
	fleetsEvicted atomic.Int64

	fleetTicks    atomic.Int64
	fleetSteps    atomic.Int64 // session-steps executed by fleet ticks
	fleetComputes atomic.Int64
	fleetSkips    atomic.Int64
	fleetShed     atomic.Int64
	fleetForced   atomic.Int64
	fleetOverrun  atomic.Int64
	fleetDegraded atomic.Int64 // computes shed by fault/deadline degradation

	sessionsFrozen   atomic.Int64 // freeze handoffs requested (migration drains)
	sessionsResumed  atomic.Int64 // sessions imported via POST /v1/sessions/resume
	resumeMismatches atomic.Int64 // imports rejected because the episode did not replay bit-exactly

	journalErrors    atomic.Int64 // journal appends/syncs that failed (durability degraded, requests unaffected)
	journalTornTails atomic.Int64 // segments truncated at a torn tail by the last recovery
	journalOrphans   atomic.Int64 // records referencing unknown ids in the last recovery

	recoveredSessions atomic.Int64 // sessions resumed by the last journal recovery
	recoveredFleets   atomic.Int64 // fleets resumed by the last journal recovery
	recoveredMembers  atomic.Int64 // fleet members resumed by the last journal recovery
	recoveredSteps    atomic.Int64 // steps replayed (and conformance-verified) by the last recovery
	recoveryFailed    atomic.Int64 // journaled objects that failed to resume

	// Latency histograms (internal/obs): full distributions replace the
	// former sum-only counters so tail behavior is visible. stepHist and
	// tickHist are per *request/tick* (their _count differs from the
	// per-step oicd_steps_total by design); marginHist records the tick
	// deadline margin (TickDeadline − elapsed) for deadline-bearing fleets
	// — negative buckets are overruns. journalAppend/journalSync are fed
	// from inside the journal writer via Options hooks.
	stepHist          *obs.Histogram
	replayHist        *obs.Histogram
	tickHist          *obs.Histogram
	tickPhases        *obs.PhaseHistogram // decide and step phases of each fleet tick
	marginHist        *obs.Histogram
	journalAppendHist *obs.Histogram
	journalSyncHist   *obs.Histogram
	recoveryPhases    *obs.PhaseHistogram
	engineLoadHist    *obs.Histogram // LoadEngine wall time: preload and artifact-store hits
}

// initHists builds the histogram set; New calls it once per server.
func (m *metrics) initHists() {
	lat := obs.LatencyBuckets()
	m.stepHist = obs.NewHistogram("oicd_step_seconds", "step request latency (single or batched)", lat)
	m.replayHist = obs.NewHistogram("oicd_replay_seconds", "replay request latency", lat)
	m.tickHist = obs.NewHistogram("oicd_fleet_tick_seconds", "fleet tick latency", lat)
	m.tickPhases = obs.NewPhaseHistogram("oicd_fleet_tick_phase_seconds",
		"fleet tick phase durations (decide: monitor, policy and S_k; step: skip and compute lanes)", []string{"decide", "step"}, lat)
	m.marginHist = obs.NewHistogram("oicd_fleet_deadline_margin_seconds", "tick deadline margin (TickDeadline - elapsed; negative = overrun)", obs.MarginBuckets())
	m.journalAppendHist = obs.NewHistogram("oicd_journal_append_seconds", "write-ahead journal append latency", lat)
	m.journalSyncHist = obs.NewHistogram("oicd_journal_sync_seconds", "write-ahead journal fsync latency", lat)
	m.recoveryPhases = obs.NewPhaseHistogram("oicd_recovery_phase_seconds", "boot journal recovery phase durations", []string{"scan", "rebuild", "replay"}, lat)
	m.engineLoadHist = obs.NewHistogram("oicd_engine_load_seconds", "engine loads from artifacts (preload and artifact-store hits)", lat)
}

// observeTick folds one fleet tick into the counters, the tick and phase
// histograms and, when the fleet carries a tick deadline, the margin
// histogram.
func (m *metrics) observeTick(rep oic.TickReport, deadline time.Duration) {
	m.fleetTicks.Add(1)
	m.tickHist.Observe(rep.Elapsed.Seconds())
	m.tickPhases.Observe("decide", rep.DecideTime.Seconds())
	m.tickPhases.Observe("step", rep.StepTime.Seconds())
	if deadline > 0 {
		m.marginHist.Observe((deadline - rep.Elapsed).Seconds())
	}
	m.fleetSteps.Add(int64(rep.Sessions))
	m.fleetComputes.Add(int64(rep.Computes))
	m.fleetSkips.Add(int64(rep.Skips))
	m.fleetShed.Add(int64(rep.Shed))
	m.fleetForced.Add(int64(rep.Forced))
	m.fleetOverrun.Add(int64(rep.Overrun))
	m.fleetDegraded.Add(int64(rep.Degraded))
}

// fleetGauge is one live fleet's scrape-time gauge snapshot, labeled by
// fleet ID — per-fleet values would be meaningless as server-global
// last-writer gauges once two fleets tick concurrently.
type fleetGauge struct {
	id    string
	stats oic.FleetStats
}

// render writes the Prometheus text exposition.
func (m *metrics) render(w io.Writer, liveSessions, cachedEngines int, fleets []fleetGauge, store oic.ArtifactStoreStats, js journal.WriterStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	// fleetGaugeF emits one labeled gauge line per live fleet.
	fleetGaugeF := func(name, help string, v func(oic.FleetStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, fg := range fleets {
			fmt.Fprintf(w, "%s{fleet=%q} %g\n", name, fg.id, v(fg.stats))
		}
	}
	gauge("oicd_sessions_active", "live sessions", int64(liveSessions))
	gauge("oicd_engines_cached", "cached engines (compiled artifact sets)", int64(cachedEngines))
	gauge("oicd_fleets_active", "live fleets", int64(len(fleets)))
	counter("oicd_sessions_created_total", "sessions created", m.sessionsCreated.Load())
	counter("oicd_sessions_closed_total", "sessions closed by clients", m.sessionsClosed.Load())
	counter("oicd_sessions_evicted_total", "sessions evicted by the TTL janitor", m.sessionsEvicted.Load())
	counter("oicd_engines_built_total", "engines compiled", m.enginesBuilt.Load())
	counter("oicd_engines_loaded_total", "engines restored from the artifact store", m.enginesLoaded.Load())
	counter("oicd_artifact_hits_total", "artifact store lookups that found a healthy entry", store.Hits)
	counter("oicd_artifact_misses_total", "artifact store lookups that found no entry", store.Misses)
	counter("oicd_artifact_corrupt_total", "artifact store entries dropped as corrupt", store.Corrupt)
	counter("oicd_artifact_writes_total", "artifacts written back after engine builds", store.Writes)
	counter("oicd_artifact_retries_total", "transient artifact read failures absorbed by the bounded retry loop", store.Retries)
	counter("oicd_artifact_preloaded_total", "engines materialized from artifacts at boot", m.artifactPreloaded.Load())
	m.engineLoadHist.Write(w)
	counter("oicd_steps_total", "control steps executed", m.steps.Load())
	counter("oicd_skips_total", "steps that skipped the controller (z=0)", m.skips.Load())
	counter("oicd_forced_total", "runs forced by the safety monitor", m.forced.Load())
	counter("oicd_step_errors_total", "failed step requests", m.stepErrors.Load())
	// Full latency distribution (histogram _sum/_count subsume the former
	// *_seconds_sum counters).
	m.stepHist.Write(w)

	counter("oicd_traces_served_total", "recorded session traces fetched", m.tracesServed.Load())
	counter("oicd_replays_total", "trace replays served", m.replays.Load())
	counter("oicd_replay_errors_total", "failed replay requests", m.replayErrors.Load())
	counter("oicd_replay_steps_total", "steps re-executed by replays", m.replaySteps.Load())
	m.replayHist.Write(w)

	counter("oicd_fleets_created_total", "fleets created", m.fleetsCreated.Load())
	counter("oicd_fleets_closed_total", "fleets closed by clients", m.fleetsClosed.Load())
	counter("oicd_fleets_evicted_total", "fleets evicted by the TTL janitor", m.fleetsEvicted.Load())
	counter("oicd_fleet_ticks_total", "fleet scheduler ticks executed", m.fleetTicks.Load())
	counter("oicd_fleet_steps_total", "session-steps executed by fleet ticks", m.fleetSteps.Load())
	counter("oicd_fleet_computes_total", "full controller computations scheduled by fleets", m.fleetComputes.Load())
	counter("oicd_fleet_skips_total", "policy-chosen skips inside fleet ticks", m.fleetSkips.Load())
	counter("oicd_fleet_shed_total", "would-be computes shed into guaranteed-safe skips", m.fleetShed.Load())
	counter("oicd_fleet_forced_total", "monitor-forced computes inside fleet ticks", m.fleetForced.Load())
	counter("oicd_fleet_overrun_total", "forced computes beyond the per-tick budget", m.fleetOverrun.Load())
	counter("oicd_fleet_degraded_total", "computes shed into certified-safe skips by fault or deadline degradation", m.fleetDegraded.Load())
	m.tickHist.Write(w)
	m.tickPhases.Write(w)
	m.marginHist.Write(w)

	counter("oicd_sessions_frozen_total", "sessions frozen for migration handoff", m.sessionsFrozen.Load())
	counter("oicd_sessions_resumed_total", "sessions imported from exported episodes (migration/failover landings)", m.sessionsResumed.Load())
	counter("oicd_resume_mismatch_total", "episode imports rejected by bit-exact replay verification", m.resumeMismatches.Load())

	counter("oicd_journal_appends_total", "write-ahead journal records appended", js.Appends)
	counter("oicd_journal_syncs_total", "write-ahead journal fsyncs issued", js.Syncs)
	counter("oicd_journal_rotations_total", "write-ahead journal segments opened", js.Rotations)
	counter("oicd_journal_bytes_total", "write-ahead journal bytes written", js.Bytes)
	counter("oicd_journal_errors_total", "journal appends or syncs that failed (durability degraded, requests unaffected)", m.journalErrors.Load())
	m.journalAppendHist.Write(w)
	m.journalSyncHist.Write(w)
	counter("oicd_journal_torn_tails_total", "segments truncated at a torn tail by the last recovery", m.journalTornTails.Load())
	counter("oicd_journal_orphans_total", "journal records referencing unknown ids in the last recovery", m.journalOrphans.Load())
	counter("oicd_recovered_sessions_total", "sessions resumed by the last journal recovery", m.recoveredSessions.Load())
	counter("oicd_recovered_fleets_total", "fleets resumed by the last journal recovery", m.recoveredFleets.Load())
	counter("oicd_recovered_members_total", "fleet members resumed by the last journal recovery", m.recoveredMembers.Load())
	counter("oicd_recovered_steps_total", "steps replayed and conformance-verified by the last recovery", m.recoveredSteps.Load())
	counter("oicd_recovery_failed_total", "journaled objects that failed to resume", m.recoveryFailed.Load())
	m.recoveryPhases.Write(w)
	obs.WriteRuntimeMetrics(w)
	if len(fleets) > 0 {
		// fleetCounterF emits one labeled cumulative counter per live fleet
		// (monotone per fleet lifetime, like the controller decision counts).
		fleetCounterF := func(name, help string, v func(oic.FleetStats) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, fg := range fleets {
				fmt.Fprintf(w, "%s{fleet=%q} %d\n", name, fg.id, v(fg.stats))
			}
		}
		fleetGaugeF("oicd_fleet_sessions", "live members per fleet",
			func(st oic.FleetStats) float64 { return float64(st.Sessions) })
		fleetGaugeF("oicd_fleet_utilization", "mean computes per tick / compute budget",
			func(st oic.FleetStats) float64 { return st.Utilization })
		fleetGaugeF("oicd_fleet_reclaimed_ratio", "(skips+shed) / steps",
			func(st oic.FleetStats) float64 { return st.ReclaimedRatio })
		fleetGaugeF("oicd_fleet_pressure", "last tick's forced computes / compute budget",
			func(st oic.FleetStats) float64 { return st.Pressure })
		fleetGaugeF("oicd_fleet_budget", "live per-tick compute budget (elastic fleets retune it every tick)",
			func(st oic.FleetStats) float64 { return float64(st.Budget) })
		fleetGaugeF("oicd_fleet_effective_sessions", "elastic admission capacity in force (0 on static fleets)",
			func(st oic.FleetStats) float64 { return float64(st.EffectiveMaxSessions) })
		fleetCounterF("oicd_fleet_budget_raises_total", "elastic controller budget increases",
			func(st oic.FleetStats) int64 { return st.BudgetRaises })
		fleetCounterF("oicd_fleet_budget_lowers_total", "elastic controller budget decreases",
			func(st oic.FleetStats) int64 { return st.BudgetLowers })
	}
}
