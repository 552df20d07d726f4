package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"oic/internal/fault"
	"oic/internal/journal"
	"oic/internal/mat"
	"oic/pkg/oic"
)

// raw issues a request and returns the response body bytes verbatim (for
// binary-trace byte-identity assertions).
func (c *client) raw(method, path string) []byte {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("%s %s: status %d, body %q", method, path, resp.StatusCode, b)
	}
	return b
}

// journalServer builds a test server with a write-ahead journal at dir.
func journalServer(t testing.TB, dir string, cfg Config, policy journal.SyncPolicy) (*Server, *client) {
	t.Helper()
	srv, c := newTestServer(t, cfg)
	if err := srv.OpenJournal(journal.Options{Dir: dir, Policy: policy}); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// stepW returns a deterministic per-step disturbance for an acc session.
func stepW(i int) []float64 {
	return []float64{0.05 * math.Sin(float64(i)), 0.03 * math.Cos(float64(2*i))}
}

// TestRequestTimeoutDeadline503 drives a step into an expired server-side
// deadline and asserts the 503 "deadline" mapping — and that the same
// machinery keeps the 499 client-cancel exit distinct.
func TestRequestTimeoutDeadline503(t *testing.T) {
	_, c := newTestServer(t, Config{RequestTimeout: time.Nanosecond})

	// Creation does no context-gated compute, so it succeeds even with an
	// already-expired request context.
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	// Stepping checks the context first: the expired deadline surfaces as
	// 503 {"code":"deadline"}, a retryable server condition.
	var e oic.ErrorResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: stepW(0)}, &e); st != http.StatusServiceUnavailable {
		t.Fatalf("step under expired deadline: status %d, body %+v", st, e)
	}
	if e.Code != "deadline" {
		t.Fatalf("step under expired deadline: code %q, want \"deadline\"", e.Code)
	}

	// The client-cancel exit must stay distinguishable: same context
	// machinery, different status and code.
	if st, code := statusAndCode(context.Canceled); st != 499 || code != "canceled" {
		t.Fatalf("client cancel maps to (%d, %q), want (499, \"canceled\")", st, code)
	}
	if st, code := statusAndCode(context.DeadlineExceeded); st != http.StatusServiceUnavailable || code != "deadline" {
		t.Fatalf("deadline maps to (%d, %q), want (503, \"deadline\")", st, code)
	}
}

// TestRecoveryGatesTraffic verifies the recovering state: /readyz 503
// {"recovering":true} and creation endpoints 503 "recovering" until the
// replay closure completes, while /healthz (liveness) stays 200.
func TestRecoveryGatesTraffic(t *testing.T) {
	dir := t.TempDir()
	srv, c := journalServer(t, dir, Config{}, journal.SyncEveryTick)

	run, err := srv.BeginJournalRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK         bool `json:"ok"`
		Recovering bool `json:"recovering"`
	}
	if st := c.do("GET", "/readyz", nil, &hz); st != http.StatusServiceUnavailable || !hz.Recovering {
		t.Fatalf("readyz while recovering: status %d, body %+v", st, hz)
	}
	if st := c.do("GET", "/healthz", nil, &hz); st != http.StatusOK || !hz.OK || !hz.Recovering {
		t.Fatalf("healthz while recovering: status %d, body %+v, want live with recovering marker", st, hz)
	}
	var e oic.ErrorResponse
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &e); st != http.StatusServiceUnavailable || e.Code != "recovering" {
		t.Fatalf("create while recovering: status %d, code %q", st, e.Code)
	}
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc"}, &e); st != http.StatusServiceUnavailable || e.Code != "recovering" {
		t.Fatalf("fleet create while recovering: status %d, code %q", st, e.Code)
	}

	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	if st := c.do("GET", "/readyz", nil, &hz); st != http.StatusOK || !hz.OK {
		t.Fatalf("readyz after recovery: status %d, body %+v", st, hz)
	}
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, nil); st != http.StatusCreated {
		t.Fatalf("create after recovery: status %d", st)
	}
}

// TestJournalRecoveryByteIdentical is the in-process crash test: journal a
// served workload, drop the server without closing anything (the crash),
// recover into a fresh server, and require byte-identical state — session
// info, binary traces, and every post-recovery step must match an
// uninterrupted reference run exactly.
func TestJournalRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const cut, total = 12, 20

	// Reference: one uninterrupted session over the full disturbance
	// sequence, straight through the library.
	eng, err := oic.NewEngine(oic.Config{Plant: "acc", Policy: oic.PolicyBangBang})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := eng.SampleInitialStates(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := xs[0]
	ref, err := eng.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	var refResults []oic.StepResult
	for i := 0; i < total; i++ {
		r, err := ref.Step(context.Background(), stepW(i))
		if err != nil {
			t.Fatal(err)
		}
		refResults = append(refResults, r)
	}

	// Phase 1: serve cut steps with the journal attached, plus a second
	// session that gets closed (it must NOT be resurrected), then crash.
	srvA, cA := journalServer(t, dir, Config{}, journal.SyncEveryTick)
	var info oic.SessionInfo
	if st := cA.do("POST", "/v1/sessions",
		oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, X0: x0, Trace: true}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for i := 0; i < cut; i++ {
		if st := cA.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: stepW(i)}, nil); st != http.StatusOK {
			t.Fatalf("step %d: status %d", i, st)
		}
	}
	var closed oic.SessionInfo
	if st := cA.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang}, &closed); st != http.StatusCreated {
		t.Fatalf("create closed-session: status %d", st)
	}
	if st := cA.do("DELETE", "/v1/sessions/"+closed.ID, nil, nil); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	var preInfo oic.SessionInfo
	cA.do("GET", "/v1/sessions/"+info.ID, nil, &preInfo)
	preTrace := cA.raw("GET", "/v1/sessions/"+info.ID+"/trace?format=binary")
	// The crash: flush what SyncEveryTick buffered (each request synced, so
	// this is a no-op for acknowledged work) and abandon the server without
	// Close records.
	srvA.Close()

	// Phase 2: recover into a fresh server over the same journal dir.
	srvB, cB := journalServer(t, dir, Config{}, journal.SyncEveryTick)
	run, err := srvB.BeginJournalRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 || rep.StepsReplayed != cut || rep.Failed != 0 || rep.Skipped != 1 {
		t.Fatalf("recovery report %+v, want 1 session, %d steps, 1 skipped, 0 failed", rep, cut)
	}

	// The recovered snapshot and binary trace are byte-identical.
	var postInfo oic.SessionInfo
	if st := cB.do("GET", "/v1/sessions/"+info.ID, nil, &postInfo); st != http.StatusOK {
		t.Fatalf("recovered session GET: status %d", st)
	}
	if postInfo.T != preInfo.T || !mat.BitsEqual(postInfo.X, preInfo.X) ||
		postInfo.Skips != preInfo.Skips || postInfo.Forced != preInfo.Forced ||
		postInfo.Violations != preInfo.Violations {
		t.Fatalf("recovered info %+v != pre-crash %+v", postInfo, preInfo)
	}
	postTrace := cB.raw("GET", "/v1/sessions/"+info.ID+"/trace?format=binary")
	if string(postTrace) != string(preTrace) {
		t.Fatalf("recovered binary trace differs: %d bytes vs %d", len(postTrace), len(preTrace))
	}
	// The closed session stays closed, and new IDs don't collide.
	if st := cB.do("GET", "/v1/sessions/"+closed.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("closed session resurrected: status %d", st)
	}
	var fresh oic.SessionInfo
	if st := cB.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &fresh); st != http.StatusCreated {
		t.Fatalf("post-recovery create: status %d", st)
	}
	if fresh.ID == info.ID || fresh.ID == closed.ID {
		t.Fatalf("post-recovery ID %q collides with a journaled ID", fresh.ID)
	}

	// Post-recovery steps continue the uninterrupted reference bit-for-bit.
	for i := cut; i < total; i++ {
		var got oic.StepResult
		if st := cB.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: stepW(i)}, &got); st != http.StatusOK {
			t.Fatalf("recovered step %d: status %d", i, st)
		}
		want := refResults[i]
		if got.T != want.T || got.Ran != want.Ran || !mat.BitsEqual(got.U, want.U) || !mat.BitsEqual(got.X, want.X) {
			t.Fatalf("recovered step %d = %+v, want %+v", i, got, want)
		}
	}
	srvB.Close()
}

// TestJournalRecoveryFleet round-trips a fleet — create-time admits, ticks
// with per-member disturbances, a live admit, an evict — through a crash
// and verifies recovered member states bit-for-bit.
func TestJournalRecoveryFleet(t *testing.T) {
	dir := t.TempDir()
	srvA, cA := journalServer(t, dir, Config{}, journal.SyncEveryTick)

	var fl oic.FleetInfo
	if st := cA.do("POST", "/v1/fleets",
		oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 2, Size: 4, Seed: 11}, &fl); st != http.StatusCreated {
		t.Fatalf("fleet create: status %d", st)
	}
	for i := 0; i < 6; i++ {
		ws := map[int][]float64{0: stepW(i), 2: stepW(i + 3)}
		if st := cA.do("POST", "/v1/fleets/"+fl.ID+"/tick", oic.FleetTickRequest{WS: ws}, nil); st != http.StatusOK {
			t.Fatalf("tick %d: status %d", i, st)
		}
	}
	var admitted oic.FleetMemberInfo
	if st := cA.do("POST", "/v1/fleets/"+fl.ID+"/sessions", oic.FleetAdmitRequest{Seed: 42}, &admitted); st != http.StatusCreated {
		t.Fatalf("admit: status %d", st)
	}
	if st := cA.do("DELETE", "/v1/fleets/"+fl.ID+"/sessions/1", nil, nil); st != http.StatusOK {
		t.Fatalf("evict: status %d", st)
	}
	if st := cA.do("POST", "/v1/fleets/"+fl.ID+"/tick", oic.FleetTickRequest{}, nil); st != http.StatusOK {
		t.Fatalf("final tick: status %d", st)
	}
	live := []int{0, 2, 3, admitted.ID}
	pre := map[int]oic.FleetMemberInfo{}
	for _, id := range live {
		var mi oic.FleetMemberInfo
		if st := cA.do("GET", "/v1/fleets/"+fl.ID+"/sessions/"+itoa(id), nil, &mi); st != http.StatusOK {
			t.Fatalf("member %d: status %d", id, st)
		}
		pre[id] = mi
	}
	srvA.Close() // crash: no close records

	srvB, cB := journalServer(t, dir, Config{}, journal.SyncEveryTick)
	run, err := srvB.BeginJournalRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleets != 1 || rep.Members != len(live) || rep.Failed != 0 {
		t.Fatalf("recovery report %+v, want 1 fleet with %d live members", rep, len(live))
	}
	for _, id := range live {
		var mi oic.FleetMemberInfo
		if st := cB.do("GET", "/v1/fleets/"+fl.ID+"/sessions/"+itoa(id), nil, &mi); st != http.StatusOK {
			t.Fatalf("recovered member %d: status %d", id, st)
		}
		want := pre[id]
		if mi.T != want.T || !mat.BitsEqual(mi.X, want.X) || mi.Skips != want.Skips ||
			mi.Forced != want.Forced || mi.SkipBudget != want.SkipBudget {
			t.Fatalf("recovered member %d = %+v, want %+v", id, mi, want)
		}
	}
	// The evicted member stays gone, and its ID is never reissued.
	if st := cB.do("GET", "/v1/fleets/"+fl.ID+"/sessions/1", nil, nil); st != http.StatusNotFound {
		t.Fatalf("evicted member resurrected")
	}
	var fresh oic.FleetMemberInfo
	if st := cB.do("POST", "/v1/fleets/"+fl.ID+"/sessions", oic.FleetAdmitRequest{Seed: 43}, &fresh); st != http.StatusCreated {
		t.Fatalf("post-recovery admit: status %d", st)
	}
	if fresh.ID != admitted.ID+1 {
		t.Fatalf("post-recovery member ID %d, want %d", fresh.ID, admitted.ID+1)
	}
	// Recovered fleets keep ticking, and their reports stay clean.
	var ticks oic.FleetTickResponse
	if st := cB.do("POST", "/v1/fleets/"+fl.ID+"/tick", oic.FleetTickRequest{Ticks: 3}, &ticks); st != http.StatusOK {
		t.Fatalf("post-recovery tick: status %d", st)
	}
	for _, rep := range ticks.Reports {
		if rep.Violations != 0 || len(rep.Errors) != 0 {
			t.Fatalf("post-recovery tick report %+v", rep)
		}
	}
	srvB.Close()
}

// TestJournalRecoveryFleetConfig: a recovered fleet comes back with the
// config it was created with. An untraced fleet's member trace stays 409
// not_tracing; a fleet with trace, degrade, a tick deadline and elastic
// bounds keeps its member's whole episode and its Config, the trace limit
// aside, which is the recovering server's; and the server's fault
// injector reaches a recovered fleet as it reaches a created one.
func TestJournalRecoveryFleetConfig(t *testing.T) {
	dir := t.TempDir()
	srvA, cA := journalServer(t, dir, Config{}, journal.SyncEveryTick)
	var plain, full oic.FleetInfo
	for _, c := range []struct {
		req  oic.CreateFleetRequest
		info *oic.FleetInfo
	}{
		{oic.CreateFleetRequest{Plant: "acc", Policy: oic.PolicyAlwaysRun, ComputeBudget: 2, Size: 3, Seed: 11}, &plain},
		{oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 2, Size: 3, Seed: 12,
			Trace: true, Degrade: true, TickDeadline: 10 * time.Second,
			Elastic: &oic.ElasticConfig{MaxBudget: 4}}, &full},
	} {
		if st := cA.do("POST", "/v1/fleets", c.req, c.info); st != http.StatusCreated {
			t.Fatalf("fleet create: status %d", st)
		}
		if st := cA.do("POST", "/v1/fleets/"+c.info.ID+"/tick", oic.FleetTickRequest{Ticks: 4}, nil); st != http.StatusOK {
			t.Fatalf("tick: status %d", st)
		}
	}
	configOf := func(srv *Server, id string) oic.FleetConfig {
		fe, ok := srv.lookupFleet(id)
		if !ok {
			t.Fatalf("fleet %s missing", id)
		}
		return fe.f.Config()
	}
	notTracing := func(c *client, id string) {
		var e oic.ErrorResponse
		if st := c.do("GET", "/v1/fleets/"+id+"/sessions/1/trace", nil, &e); st != http.StatusConflict || e.Code != "not_tracing" {
			t.Fatalf("untraced member trace: status %d code %q, want 409 not_tracing", st, e.Code)
		}
	}
	notTracing(cA, plain.ID)
	episode := cA.raw("GET", "/v1/fleets/"+full.ID+"/sessions/1/trace?format=binary")
	want := map[string]oic.FleetConfig{plain.ID: configOf(srvA, plain.ID), full.ID: configOf(srvA, full.ID)}
	srvA.Close() // crash: no close records

	const limit = 1000
	srvB, cB := journalServer(t, dir, Config{TraceLimit: limit}, journal.SyncEveryTick)
	inj := fault.New(1)
	srvB.SetFaults(inj)
	run, err := srvB.BeginJournalRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := run(); err != nil || rep.Fleets != 2 || rep.Failed != 0 {
		t.Fatalf("recovery: %+v, %v", rep, err)
	}
	notTracing(cB, plain.ID)
	if got := cB.raw("GET", "/v1/fleets/"+full.ID+"/sessions/1/trace?format=binary"); !bytes.Equal(got, episode) {
		t.Fatalf("recovered member episode (%d bytes) differs from the pre-crash one (%d bytes)", len(got), len(episode))
	}
	for id, w := range want {
		got := configOf(srvB, id)
		if got.TraceLimit != limit {
			t.Errorf("fleet %s: trace limit %d, want the server's %d", id, got.TraceLimit, limit)
		}
		got.TraceLimit = w.TraceLimit
		if !reflect.DeepEqual(got, w) {
			t.Errorf("fleet %s: recovered config %+v (elastic %+v), want %+v (elastic %+v)", id, got, got.Elastic, w, w.Elastic)
		}
	}

	// The first compute dispatched on the next tick fails; it is optional,
	// so the scheduler sheds it into a safe skip.
	inj.FailFirst(fault.SiteSchedCompute, 1)
	var ticks oic.FleetTickResponse
	if st := cB.do("POST", "/v1/fleets/"+plain.ID+"/tick", oic.FleetTickRequest{}, &ticks); st != http.StatusOK {
		t.Fatalf("post-recovery tick: status %d", st)
	}
	if r := ticks.Reports[0]; r.Degraded != 1 || len(r.Errors) != 0 {
		t.Fatalf("post-recovery tick under an injected compute fault: degraded %d, errors %v; want 1 degraded", r.Degraded, r.Errors)
	}
	srvB.Close()
}

// TestShutdownFlushesJournal drives a buffered-policy journal (nothing
// synced per request) and verifies Close lands every acknowledged record
// durably on disk — with the session left open, not close-journaled, so
// it survives into the next recovery.
func TestShutdownFlushesJournal(t *testing.T) {
	dir := t.TempDir()
	srv, c := journalServer(t, dir, Config{}, journal.SyncNone)

	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	const steps = 9
	for i := 0; i < steps; i++ {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: stepW(i)}, nil); st != http.StatusOK {
			t.Fatalf("step %d: status %d", i, st)
		}
	}
	srv.Close()

	rv, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Sessions) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(rv.Sessions))
	}
	st := rv.Sessions[0]
	if st.ID != info.ID || len(st.Steps) != steps {
		t.Fatalf("recovered %q with %d steps, want %q with %d", st.ID, len(st.Steps), info.ID, steps)
	}
	if st.Closed {
		t.Fatal("shutdown wrote a close record; live sessions must survive restarts")
	}
	if rv.TornTails != 0 {
		t.Fatalf("clean shutdown left %d torn tails", rv.TornTails)
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// TestJournalPrecedesPublication races clients against object creation
// under per-step syncing: a goroutine steps the next session ID and another
// ticks the next fleet ID until each answers, and ticks run while members
// are admitted to a fleet. Whatever a client saw acknowledged must be in
// the journal, so recovery on a fresh server resumes every object, with no
// orphan records, at the step count it had live.
func TestJournalPrecedesPublication(t *testing.T) {
	dir := t.TempDir()
	srvA, cA := journalServer(t, dir, Config{MaxFleets: 32}, journal.SyncEveryStep)

	// post sends a JSON request from a helper goroutine, where c.do's
	// t.Fatal must not run; -1 reports a transport error.
	post := func(path string, body any) int {
		buf, _ := json.Marshal(body)
		resp, err := cA.hc.Post(cA.base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return -1
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// race creates an object while a goroutine posts to path until the
	// object it names is published, and returns that goroutine's final
	// status.
	race := func(path string, body any, create func()) int {
		done := make(chan int, 1)
		go func() {
			st := post(path, body)
			for st == http.StatusNotFound {
				st = post(path, body)
			}
			done <- st
		}()
		create()
		return <-done
	}

	var sessions []string
	for i := 1; i <= 40; i++ {
		id := fmt.Sprintf("s-%s-%d", srvA.tag, i)
		st := race("/v1/sessions/"+id+"/step", oic.StepRequest{W: stepW(i)}, func() {
			var info oic.SessionInfo
			if st := cA.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: int64(i)}, &info); st != http.StatusCreated || info.ID != id {
				t.Fatalf("create %d: status %d, id %q", i, st, info.ID)
			}
		})
		if st != http.StatusOK {
			t.Fatalf("step on %s: status %d", id, st)
		}
		sessions = append(sessions, id)
	}

	members := map[string][]int{} // fleet ID → member IDs
	for i := 1; i <= 20; i++ {
		id := fmt.Sprintf("f-%s-%d", srvA.tag, i)
		st := race("/v1/fleets/"+id+"/tick", oic.FleetTickRequest{}, func() {
			var fl oic.FleetInfo
			if st := cA.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 1, Size: 2, Seed: int64(i)}, &fl); st != http.StatusCreated || fl.ID != id {
				t.Fatalf("fleet create %d: status %d, id %q", i, st, fl.ID)
			}
		})
		if st != http.StatusOK {
			t.Fatalf("tick on %s: status %d", id, st)
		}
		members[id] = []int{0, 1}
	}

	// tickWhile ticks a fleet from a goroutine until the returned stop is
	// called; stop fails the test if any of those ticks failed.
	tickWhile := func(id string) (stop func()) {
		quit, failed := make(chan struct{}), make(chan bool, 1)
		go func() {
			for {
				select {
				case <-quit:
					failed <- false
					return
				default:
				}
				if post("/v1/fleets/"+id+"/tick", oic.FleetTickRequest{}) != http.StatusOK {
					failed <- true
					return
				}
			}
		}()
		return func() {
			close(quit)
			if <-failed {
				t.Fatalf("a tick on %s failed", id)
			}
		}
	}

	// Admit members into a bang-bang fleet that ticks throughout, while
	// three tickers on an always-run fleet keep the journal writer
	// contended: an admit record must land before any tick can step the
	// new member, whose first step is a fast skip.
	const admits = 60
	var hot, noisy oic.FleetInfo
	if st := cA.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Policy: oic.PolicyBangBang, Size: 4, Seed: 9}, &hot); st != http.StatusCreated {
		t.Fatalf("admit fleet create: status %d", st)
	}
	if st := cA.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 16, Seed: 11}, &noisy); st != http.StatusCreated {
		t.Fatalf("noisy fleet create: status %d", st)
	}
	for mid := 0; mid < 16; mid++ {
		if mid < 4 {
			members[hot.ID] = append(members[hot.ID], mid)
		}
		members[noisy.ID] = append(members[noisy.ID], mid)
	}
	stops := []func(){tickWhile(hot.ID), tickWhile(noisy.ID), tickWhile(noisy.ID), tickWhile(noisy.ID)}
	for i := 0; i < admits; i++ {
		var mi oic.FleetMemberInfo
		if st := cA.do("POST", "/v1/fleets/"+hot.ID+"/sessions", oic.FleetAdmitRequest{Seed: int64(100 + i)}, &mi); st != http.StatusCreated {
			t.Fatalf("admit %d: status %d", i, st)
		}
		members[hot.ID] = append(members[hot.ID], mi.ID)
	}
	for _, halt := range stops {
		halt()
	}

	// stepCounts reads every object's step count from a server.
	stepCounts := func(c *client) map[string]int {
		out := map[string]int{}
		for _, id := range sessions {
			var info oic.SessionInfo
			if st := c.do("GET", "/v1/sessions/"+id, nil, &info); st != http.StatusOK {
				t.Fatalf("GET %s: status %d", id, st)
			}
			out[id] = info.T
		}
		for fid, mids := range members {
			for _, mid := range mids {
				path := fmt.Sprintf("/v1/fleets/%s/sessions/%d", fid, mid)
				var mi oic.FleetMemberInfo
				if st := c.do("GET", path, nil, &mi); st != http.StatusOK {
					t.Fatalf("GET %s: status %d", path, st)
				}
				out[path] = mi.T
			}
		}
		return out
	}
	live := stepCounts(cA)
	srvA.Close()

	srvB, cB := journalServer(t, dir, Config{MaxFleets: 32}, journal.SyncEveryStep)
	run, err := srvB.BeginJournalRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Orphans != 0 {
		t.Fatalf("recovery report %+v, want no failed objects and no orphan records", rep)
	}
	for obj, n := range stepCounts(cB) {
		if n != live[obj] {
			t.Errorf("%s: recovered at step %d, live at %d", obj, n, live[obj])
		}
	}
}
