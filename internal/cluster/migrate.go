package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"oic/internal/mat"
	"oic/internal/obs"
	"oic/pkg/oic"
)

// Live migration is the drain protocol of DESIGN.md §11 — "record, ship,
// replay", end to end:
//
//  1. freeze  — POST {src}/v1/sessions/{id}/freeze quiesces the source;
//     the returned snapshot is the state the target must reproduce.
//  2. ship    — GET {src}/v1/sessions/{id}/trace?format=binary exports
//     the recorded episode in the canonical binary form.
//  3. replay  — POST {dst}/v1/sessions/resume imports it under the same
//     ID; the target replays the episode to head with bit-exact
//     conformance checks and journals the whole imported history before
//     acknowledging.
//  4. verify  — the landed snapshot is compared field-by-field and
//     bit-by-bit (states and energy via Float64bits) against the frozen
//     source. Divergence rolls everything back: delete the landing,
//     unfreeze the source, fail with ErrMigrateMismatch.
//  5. repoint — the ownership row flips to the target under the entry
//     lock (steps blocked on the lock land on the new owner), then the
//     source copy is deleted.
//
// Failover reuses steps 3–5 with the router's shadow episode standing in
// for the source export, which is what makes node death survivable
// without shared storage.

// verifyHandoff checks that the migration landing reproduced the frozen
// source state exactly.
func verifyHandoff(src, dst *oic.SessionInfo) error {
	mismatch := func(field string, s, d any) error {
		return fmt.Errorf("%w: %s: source %v, target %v", ErrMigrateMismatch, field, s, d)
	}
	if dst.T != src.T {
		return mismatch("t", src.T, dst.T)
	}
	if dst.Skips != src.Skips {
		return mismatch("skips", src.Skips, dst.Skips)
	}
	if dst.Runs != src.Runs {
		return mismatch("runs", src.Runs, dst.Runs)
	}
	if dst.Forced != src.Forced {
		return mismatch("forced", src.Forced, dst.Forced)
	}
	if dst.Violations != src.Violations {
		return mismatch("violations", src.Violations, dst.Violations)
	}
	if dst.Level != src.Level {
		return mismatch("level", src.Level, dst.Level)
	}
	if !mat.BitsEqual(dst.X, src.X) {
		return mismatch("x", src.X, dst.X)
	}
	if math.Float64bits(dst.Energy) != math.Float64bits(src.Energy) {
		return mismatch("energy", src.Energy, dst.Energy)
	}
	return nil
}

// resolveTarget picks the landing node: the named one (which must be
// ready) or the ring-preferred ready node excluding the current owner.
func (rt *Router) resolveTarget(target string, fp string, exclude string) (*nodeState, error) {
	if target != "" {
		n, ok := rt.byName[target]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownNode, target)
		}
		if n.Name == exclude {
			return nil, fmt.Errorf("%w: session already on %q", ErrUnknownNode, target)
		}
		if !n.isReady() {
			return nil, fmt.Errorf("%w: target %q is not ready", ErrNoShard, target)
		}
		return n, nil
	}
	return rt.place(fp, map[string]bool{exclude: true})
}

// MigrateSession live-migrates one session. With an empty target the
// placement ring chooses. The entry lock is held end to end, so
// concurrent steps stall briefly and then land on the new owner.
func (rt *Router) MigrateSession(ctx context.Context, id, target string) (*MigrateReport, error) {
	e, ok := rt.session(ctx, id)
	if !ok {
		return nil, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lost {
		return nil, fmt.Errorf("%w: session %q", ErrNoShadow, id)
	}
	src := e.node.Load()
	dst, err := rt.resolveTarget(target, e.fp, src.Name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// The source is gone, or dies before it freezes: the "migration" is a
	// failover from the shadow.
	failover := func() (*MigrateReport, error) {
		rep, err := rt.failoverEntry(ctx, e, dst)
		if err == nil {
			rep.Millis = float64(time.Since(start)) / float64(time.Millisecond)
		}
		return rep, err
	}
	if !src.isLive() {
		return failover()
	}
	// The span times each protocol phase into
	// oicd_migration_phase_seconds and lands in /v1/debug/ops, carrying
	// the request's trace ID so the phases correlate with both nodes'
	// logs.
	span := obs.StartSpan("migration", e.id, obs.TraceIDFrom(ctx), rt.ops, rt.m.migPhases)
	abort := func(err error) (*MigrateReport, error) {
		rt.m.migrateFailed.Add(1)
		span.End(err)
		rt.log.Warn("migration failed", "session", e.id, "from", src.Name, "to", dst.Name,
			"error", err, "trace_id", obs.TraceIDFrom(ctx))
		return nil, err
	}

	// 1. Freeze: quiesce the source and capture the reference snapshot.
	span.Phase("freeze")
	status, _, b, perr := rt.proxy(ctx, src, http.MethodPost, "/v1/sessions/"+e.id+"/freeze", []byte("{}"), nil)
	if perr != nil {
		span.End(fmt.Errorf("source died mid-freeze; falling over: %v", perr))
		return failover()
	}
	if status != http.StatusOK {
		return abort(fmt.Errorf("cluster: freeze on %s: %s", src.Name, nodeErr(status, b)))
	}
	var srcInfo oic.SessionInfo
	if json.Unmarshal(b, &srcInfo) != nil {
		return abort(fmt.Errorf("cluster: freeze on %s: malformed response", src.Name))
	}
	// fail is the abort path once the source is frozen: it must resume
	// serving.
	fail := func(err error) (*MigrateReport, error) {
		_, _, _, _ = rt.proxy(ctx, src, http.MethodPost, "/v1/sessions/"+e.id+"/unfreeze", []byte("{}"), nil)
		return abort(err)
	}

	// 2. Ship: export the frozen episode.
	span.Phase("export")
	status, _, bin, perr := rt.proxy(ctx, src, http.MethodGet, "/v1/sessions/"+e.id+"/trace?format=binary", nil, nil)
	if perr != nil {
		return abort(fmt.Errorf("%w: %s died mid-export", ErrShardDown, src.Name))
	}
	if status != http.StatusOK {
		return fail(fmt.Errorf("cluster: trace export on %s: %s", src.Name, nodeErr(status, bin)))
	}

	// 3. Replay: land the episode on the target.
	span.Phase("replay")
	dstInfo, err := rt.land(ctx, dst, e.id, bin)
	if err != nil {
		return fail(err)
	}

	// 4. Verify bit-exactly against the frozen source.
	span.Phase("verify")
	if err := verifyHandoff(&srcInfo, dstInfo); err != nil {
		_, _, _, _ = rt.proxy(ctx, dst, http.MethodDelete, "/v1/sessions/"+e.id, nil, nil)
		return fail(err)
	}

	// 5. Repoint ownership, refresh the shadow to the shipped episode,
	// delete the source copy (best effort — a copy left behind stays
	// frozen, a lookup prefers the unfrozen landing, and a later landing
	// on that node deletes it).
	span.Phase("repoint")
	e.node.Store(dst)
	if tr, derr := oic.DecodeTrace(bin); derr == nil {
		e.sh = shadowFromTrace(tr)
	}
	_, _, _, _ = rt.proxy(ctx, src, http.MethodDelete, "/v1/sessions/"+e.id, nil, nil)

	span.End(nil)
	rt.m.migrations.Add(1)
	millis := float64(time.Since(start)) / float64(time.Millisecond)
	rt.log.Info("migration complete", "session", e.id, "from", src.Name, "to", dst.Name,
		"steps", dstInfo.T, "millis", millis, "trace_id", obs.TraceIDFrom(ctx))
	return &MigrateReport{
		Session: e.id, From: src.Name, To: dst.Name,
		Steps:  dstInfo.T,
		Millis: millis,
	}, nil
}

// land imports a binary episode on dst via the resume endpoint, under the
// session's own ID. The caller's entry names another owner, so a copy dst
// already holds under that ID (409 id_taken) is stale: a failover source
// that came back from its journal, or a migration source whose delete
// failed. land deletes it and tries once more.
func (rt *Router) land(ctx context.Context, dst *nodeState, id string, bin []byte) (*oic.SessionInfo, error) {
	body, _ := json.Marshal(oic.ResumeSessionRequest{ID: id, TraceBin: bin})
	status, _, b, perr := rt.proxy(ctx, dst, http.MethodPost, "/v1/sessions/resume", body, nil)
	if perr == nil && status == http.StatusConflict && errCode(b) == "id_taken" {
		rt.log.Info("deleting stale copy", "session", id, "node", dst.Name, "trace_id", obs.TraceIDFrom(ctx))
		// A failed delete shows as a second id_taken, which fails the landing.
		_, _, _, _ = rt.proxy(ctx, dst, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
		status, _, b, perr = rt.proxy(ctx, dst, http.MethodPost, "/v1/sessions/resume", body, nil)
	}
	if perr != nil {
		return nil, fmt.Errorf("%w: target %s unreachable", ErrShardDown, dst.Name)
	}
	if status != http.StatusCreated {
		if code := errCode(b); code == "resume_mismatch" {
			return nil, fmt.Errorf("%w: target %s rejected replay: %s", ErrMigrateMismatch, dst.Name, nodeErr(status, b))
		}
		return nil, fmt.Errorf("cluster: resume on %s: %s", dst.Name, nodeErr(status, b))
	}
	var info oic.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return nil, fmt.Errorf("cluster: resume on %s: malformed response", dst.Name)
	}
	return &info, nil
}

// failoverEntry re-homes one session from its shadow episode (entry lock
// held by the caller). dst == nil lets placement choose among survivors.
func (rt *Router) failoverEntry(ctx context.Context, e *sessEntry, dst *nodeState) (*MigrateReport, error) {
	src := e.node.Load()
	if !e.sh.usable() {
		e.lost = true
		rt.m.lost.Add(1)
		rt.m.failoverFailed.Add(1)
		return nil, fmt.Errorf("%w: session %q", ErrNoShadow, e.id)
	}
	if dst == nil {
		var err error
		if dst, err = rt.place(e.fp, map[string]bool{src.Name: true}); err != nil {
			rt.m.failoverFailed.Add(1)
			return nil, err
		}
	}
	span := obs.StartSpan("failover", e.id, obs.TraceIDFrom(ctx), rt.ops, rt.m.failPhases)
	fail := func(err error) (*MigrateReport, error) {
		rt.m.failoverFailed.Add(1)
		span.End(err)
		rt.log.Warn("failover failed", "session", e.id, "from", src.Name, "to", dst.Name,
			"error", err, "trace_id", obs.TraceIDFrom(ctx))
		return nil, err
	}
	span.Phase("export")
	tr := e.sh.rec.Trace()
	bin, err := oic.EncodeTrace(tr)
	if err != nil {
		return fail(fmt.Errorf("cluster: encoding shadow episode: %w", err))
	}
	span.Phase("replay")
	info, err := rt.land(ctx, dst, e.id, bin)
	if err != nil {
		return fail(err)
	}
	// Verify the landing against the shadow head: same length, same final
	// state and energy, bit for bit. (The target already verified every
	// intermediate step during replay.)
	span.Phase("verify")
	wantX := tr.X0
	if n := tr.Len(); n > 0 {
		wantX = tr.Steps[n-1].X
	}
	if info.T != tr.Len() || !mat.BitsEqual(info.X, wantX) ||
		math.Float64bits(info.Energy) != math.Float64bits(tr.Energy) {
		_, _, _, _ = rt.proxy(ctx, dst, http.MethodDelete, "/v1/sessions/"+e.id, nil, nil)
		return fail(fmt.Errorf("%w: failover landing diverged at t=%d", ErrMigrateMismatch, info.T))
	}
	span.Phase("repoint")
	e.node.Store(dst)
	src.queueStale(e.id)
	span.End(nil)
	rt.m.failovers.Add(1)
	rt.log.Info("failover landed", "session", e.id, "from", src.Name, "to", dst.Name,
		"steps", tr.Len(), "trace_id", obs.TraceIDFrom(ctx))
	return &MigrateReport{
		Session: e.id, From: src.Name, To: dst.Name,
		Steps: tr.Len(), Failover: true,
	}, nil
}

// FailoverNode re-homes every session owned by a dead (or dying) node
// onto survivors from their shadow episodes. Fleets stay pinned: they
// recover when the node replays its own journal (their tick responses
// carry no per-member episodes to shadow). Invoked automatically on
// death declarations when Config.AutoFailover is set.
func (rt *Router) FailoverNode(ctx context.Context, name string) (moved, failed int, err error) {
	if _, ok := rt.byName[name]; !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	for _, e := range rt.ownedSessions(name) {
		e.mu.Lock()
		if owner := e.node.Load(); e.lost || owner.Name != name || owner.isLive() {
			// Already re-homed, lost, or the node came back — nothing to do.
			e.mu.Unlock()
			continue
		}
		if _, ferr := rt.failoverEntry(ctx, e, nil); ferr != nil {
			failed++
		} else {
			moved++
		}
		e.mu.Unlock()
	}
	return moved, failed, nil
}

// ownedSessions snapshots the entries currently pointing at a node. The
// owner reads are atomic loads, not entry-lock acquisitions (which would
// invert a session DELETE's lock order); candidates are re-checked
// under the entry lock before any action.
func (rt *Router) ownedSessions(name string) []*sessEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []*sessEntry
	for _, e := range rt.sessions {
		if e.nodeName() == name {
			out = append(out, e)
		}
	}
	return out
}

// DrainNode live-migrates every session off a node (decommissioning).
// Fleets are reported as skipped, not failures.
func (rt *Router) DrainNode(ctx context.Context, name string) (*DrainReport, error) {
	if _, ok := rt.byName[name]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	rep := &DrainReport{Node: name}
	for _, e := range rt.ownedSessions(name) {
		if _, err := rt.MigrateSession(ctx, e.id, ""); err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", e.id, err))
		} else {
			rep.Migrated++
		}
	}
	rt.mu.Lock()
	for _, n := range rt.fleets {
		if n.Name == name {
			rep.FleetsSkipped++
		}
	}
	rt.mu.Unlock()
	return rep, nil
}

// nodeErr renders a node error payload for wrapping.
func nodeErr(status int, body []byte) string {
	var er oic.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return fmt.Sprintf("%d %s (%s)", status, er.Error, er.Code)
	}
	return fmt.Sprintf("status %d", status)
}

// errCode extracts the wire error code from a node response.
func errCode(body []byte) string {
	var er oic.ErrorResponse
	_ = json.Unmarshal(body, &er)
	return er.Code
}
