package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"oic/internal/journal"
	"oic/internal/server"
	"oic/pkg/oic"

	_ "oic/internal/acc"
	_ "oic/internal/thermo"
)

// testNode is one in-process oicd node behind a real listener.
type testNode struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
}

// testCluster builds n in-process nodes plus a router over them and
// probes once so every node is known ready.
func testCluster(t testing.TB, n int, nodeCfg server.Config, rtCfg Config) (*Router, []*testNode) {
	t.Helper()
	mem := &Membership{}
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		srv := server.New(nodeCfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		name := string(rune('a' + i))
		nodes[i] = &testNode{name: name, srv: srv, ts: ts}
		mem.Nodes = append(mem.Nodes, Node{Name: name, Addr: ts.URL})
	}
	rt, err := New(mem, rtCfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(context.Background())
	return rt, nodes
}

// rc is a typed client over the router handler.
type rc struct {
	t testing.TB
	h http.Handler
}

func (c *rc) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	c.h.ServeHTTP(w, req)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

// shardStatus is the status of a GET sent straight to one node.
func shardStatus(t testing.TB, n *testNode, path string) int {
	t.Helper()
	resp, err := http.Get(n.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (c *rc) raw(method, path string) (int, []byte) {
	c.t.Helper()
	req := httptest.NewRequest(method, path, nil)
	w := httptest.NewRecorder()
	c.h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func accCase(t testing.TB, steps int) ([]float64, [][]float64) {
	t.Helper()
	eng, err := oic.NewEngine(oic.Config{Plant: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	x0, ws, err := eng.DrawCase(9, steps)
	if err != nil {
		t.Fatal(err)
	}
	return x0, ws
}

// referenceTrace runs the same episode uninterrupted on a single node
// and exports its binary trace — the byte-identity oracle.
func referenceTrace(t testing.TB, x0 []float64, ws [][]float64) []byte {
	t.Helper()
	eng, err := oic.NewEngine(oic.Config{Plant: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewSession(x0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StartTrace(100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StepMany(context.Background(), ws); err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := oic.EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestMigrationByteIdentical is the PR's acceptance criterion: a session
// created through the router, stepped 100 times, live-migrated to the
// other node, and stepped 100 more produces a trace byte-identical to
// 200 uninterrupted steps on a single node.
func TestMigrationByteIdentical(t *testing.T) {
	rt, nodes := testCluster(t, 2, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}

	const half = 100
	x0, ws := accCase(t, 2*half)

	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if !strings.HasPrefix(info.ID, "s-") {
		t.Fatalf("router session ID %q, want the shard's s- ID", info.ID)
	}
	for i := 0; i < half; i++ {
		var res oic.StepResult
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[i]}, &res); st != http.StatusOK {
			t.Fatalf("step %d: status %d", i, st)
		}
	}

	// Live-migrate to the node that does not own it.
	e, ok := rt.session(t.Context(), info.ID)
	if !ok {
		t.Fatal("router lost the session entry")
	}
	from := e.nodeName()
	var target string
	for _, n := range nodes {
		if n.name != from {
			target = n.name
		}
	}
	var rep MigrateReport
	if st := c.do("POST", "/v1/cluster/migrate", MigrateRequest{Session: info.ID, Target: target}, &rep); st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}
	if rep.From != from || rep.To != target || rep.Steps != half || rep.Failover {
		t.Fatalf("migrate report: %+v", rep)
	}
	if got := e.nodeName(); got != target {
		t.Fatalf("ownership points at %s, want %s", got, target)
	}

	// Second half lands on the new owner (batched, exercising the WS
	// shadow path too).
	var batch oic.StepResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{WS: ws[half:]}, &batch); st != http.StatusOK {
		t.Fatalf("batch after migrate: status %d", st)
	}
	if len(batch.Results) != half {
		t.Fatalf("batch results: %d, want %d", len(batch.Results), half)
	}

	var got oic.SessionInfo
	if st := c.do("GET", "/v1/sessions/"+info.ID, nil, &got); st != http.StatusOK || got.T != 2*half || got.ID != info.ID {
		t.Fatalf("info after migrate: status %d, %+v", st, got)
	}
	if got.Violations != 0 {
		t.Fatalf("safety violations after migration: %d", got.Violations)
	}
	// The landing kept the ID, and the source copy is gone.
	for _, n := range nodes {
		want := http.StatusNotFound
		if n.name == target {
			want = http.StatusOK
		}
		if st := shardStatus(t, n, "/v1/sessions/"+info.ID); st != want {
			t.Fatalf("GET %s on node %s: status %d, want %d", info.ID, n.name, st, want)
		}
	}

	st, bin := c.raw("GET", "/v1/sessions/"+info.ID+"/trace?format=binary")
	if st != http.StatusOK {
		t.Fatalf("trace export: status %d", st)
	}
	want := referenceTrace(t, x0, ws)
	if !bytes.Equal(bin, want) {
		t.Fatalf("migrated trace differs from uninterrupted reference (%d vs %d bytes)", len(bin), len(want))
	}

	// The source node no longer holds a copy.
	if e.nodeName() == from {
		t.Fatal("entry still points at source")
	}
	total := 0
	for _, n := range nodes {
		total += n.srv.SessionCount()
	}
	if total != 1 {
		t.Fatalf("%d sessions across nodes after migration, want 1", total)
	}
}

// TestMigrateMidSkipChain migrates at a cut where the previous step was
// a policy skip and the state still has nonzero remaining skip budget —
// the hardest resume point, since the successor must reproduce the
// mid-chain commitment bit-for-bit.
func TestMigrateMidSkipChain(t *testing.T) {
	const steps = 60
	x0, ws := accCase(t, steps)

	// Find a mid-skip-chain cut in the reference episode.
	ref, err := oic.DecodeTrace(referenceTrace(t, x0, ws))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := oic.NewEngine(oic.Config{Plant: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	cut := -1
	for i := 1; i < steps-1; i++ {
		if ref.Steps[i-1].Ran {
			continue
		}
		if b, err := eng.SkipBudget(ref.Steps[i-1].X); err == nil && b >= 1 {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Skip("episode has no mid-skip-chain cut (policy never skipped with budget left)")
	}

	rt, nodes := testCluster(t, 2, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var pre oic.StepResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{WS: ws[:cut]}, &pre); st != http.StatusOK {
		t.Fatalf("steps to cut: status %d", st)
	}

	e, _ := rt.session(t.Context(), info.ID)
	from := e.nodeName()
	var target string
	for _, n := range nodes {
		if n.name != from {
			target = n.name
		}
	}
	if _, err := rt.MigrateSession(context.Background(), info.ID, target); err != nil {
		t.Fatalf("migrate at mid-skip-chain cut %d: %v", cut, err)
	}
	var post oic.StepResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{WS: ws[cut:]}, &post); st != http.StatusOK {
		t.Fatalf("steps after cut: status %d", st)
	}
	st, bin := c.raw("GET", "/v1/sessions/"+info.ID+"/trace?format=binary")
	if st != http.StatusOK {
		t.Fatalf("trace export: status %d", st)
	}
	want, _ := oic.EncodeTrace(ref)
	if !bytes.Equal(bin, want) {
		t.Fatalf("mid-skip-chain migration trace differs from reference (cut %d)", cut)
	}
}

// TestMigrateAtTraceLimit migrates a session whose episode sits exactly
// at the node trace cap: the import must accept a limit-length episode,
// and stepping past the cap must fail identically on the new owner.
func TestMigrateAtTraceLimit(t *testing.T) {
	const limit = 8
	rt, nodes := testCluster(t, 2, server.Config{TraceLimit: limit}, Config{})
	c := &rc{t: t, h: rt.Handler()}
	x0, ws := accCase(t, limit)

	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var resp oic.StepResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{WS: ws}, &resp); st != http.StatusOK {
		t.Fatalf("steps to limit: status %d", st)
	}

	e, _ := rt.session(t.Context(), info.ID)
	from := e.nodeName()
	var target string
	for _, n := range nodes {
		if n.name != from {
			target = n.name
		}
	}
	rep, err := rt.MigrateSession(context.Background(), info.ID, target)
	if err != nil {
		t.Fatalf("migrate at trace limit: %v", err)
	}
	if rep.Steps != limit {
		t.Fatalf("migrated %d steps, want %d", rep.Steps, limit)
	}
	// Past the cap the new owner answers exactly like the old one would:
	// 409 trace_limit.
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, nil); st != http.StatusConflict {
		t.Fatalf("step past limit after migration: status %d, want 409", st)
	} else {
		req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/step", strings.NewReader("{}"))
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Code != "trace_limit" {
			t.Fatalf("step past limit: body %s, want trace_limit", w.Body.String())
		}
	}
}

// TestRoutedFleetTracesOnRequest: the router forwards a fleet's create
// body as the client sent it, so a routed fleet records member episodes
// exactly when a direct oicd fleet does. Without "trace" the member trace
// answers 409 not_tracing; with "trace": true the router serves the
// member's binary episode byte for byte as the owning shard exports it.
func TestRoutedFleetTracesOnRequest(t *testing.T) {
	rt, nodes := testCluster(t, 1, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}

	mkFleet := func(trace bool) string {
		var info oic.FleetInfo
		if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
			Plant: "acc", ComputeBudget: 2, Size: 3, Seed: 4, Trace: trace,
		}, &info); st != http.StatusCreated {
			t.Fatalf("fleet create (trace %v): status %d", trace, st)
		}
		if st := c.do("POST", "/v1/fleets/"+info.ID+"/tick", oic.FleetTickRequest{Ticks: 6}, nil); st != http.StatusOK {
			t.Fatalf("tick (trace %v): status %d", trace, st)
		}
		return info.ID
	}

	plain := mkFleet(false)
	st, b := c.raw("GET", "/v1/fleets/"+plain+"/sessions/1/trace")
	var er oic.ErrorResponse
	if st != http.StatusConflict || json.Unmarshal(b, &er) != nil || er.Code != "not_tracing" {
		t.Fatalf("untraced routed fleet: status %d body %s, want 409 not_tracing", st, b)
	}

	traced := mkFleet(true)
	st, viaRouter := c.raw("GET", "/v1/fleets/"+traced+"/sessions/1/trace?format=binary")
	if st != http.StatusOK {
		t.Fatalf("traced routed fleet: status %d body %s", st, viaRouter)
	}
	resp, err := http.Get(nodes[0].ts.URL + "/v1/fleets/" + traced + "/sessions/1/trace?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("shard export: status %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(viaRouter, direct) {
		t.Fatalf("routed member trace (%d bytes) differs from the shard's export (%d bytes)", len(viaRouter), len(direct))
	}
	tr, err := oic.DecodeTrace(viaRouter)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 6 {
		t.Fatalf("member episode holds %d steps, want 6", tr.Len())
	}
}

// TestForwardRouteTable drives every route that names a session or fleet
// through a one-node router and, in lockstep, sends the same request
// straight to the shard for a twin created there from the same body. The
// routed answer must equal the twin's: the same status, the same decoded
// JSON with only "id" set aside (the routed object's ID in place of the
// twin's; wall times aside), the same bytes for a binary trace, and the
// same error code with the shard named in "node". Every route answers 404
// not_found for an ID no shard holds.
func TestForwardRouteTable(t *testing.T) {
	rt, nodes := testCluster(t, 1, server.Config{}, Config{})
	h := rt.Handler()
	x0, ws := accCase(t, 3)

	type answer struct {
		status int
		ctype  string
		body   []byte
	}
	viaRouter := func(method, path, body string) answer {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return answer{w.Code, w.Header().Get("Content-Type"), w.Body.Bytes()}
	}
	direct := func(method, path, body string) answer {
		req, err := http.NewRequest(method, nodes[0].ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Content-Type"), b}
	}
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// create opens the routed object and its twin on the shard, and
	// returns both IDs.
	create := func(path string, routed, twin any) (string, string) {
		var r, d struct{ ID string }
		for _, c := range []struct {
			a   answer
			out *struct{ ID string }
		}{{viaRouter("POST", path, mustJSON(routed)), &r}, {direct("POST", path, mustJSON(twin)), &d}} {
			if c.a.status != http.StatusCreated || json.Unmarshal(c.a.body, c.out) != nil {
				t.Fatalf("create %s: status %d body %s", path, c.a.status, c.a.body)
			}
		}
		return r.ID, d.ID
	}
	// The router forces "trace": true on a session, so the twin asks for it.
	sess, sessTwin := create("/v1/sessions",
		oic.CreateSessionRequest{Plant: "acc", X0: x0},
		oic.CreateSessionRequest{Plant: "acc", X0: x0, Trace: true})
	fleetReq := oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 2, Size: 3, Seed: 4, Trace: true}
	fleet, fleetTwin := create("/v1/fleets", fleetReq, fleetReq)

	// untimed drops the wall-time fields of fleet stats and tick reports,
	// the only fields in which two twins' answers may differ.
	var untimed func(v any)
	untimed = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, k := range []string{"tick_time_ns", "elapsed_ns", "decide_ns", "step_ns"} {
				delete(v, k)
			}
			for _, x := range v {
				untimed(x)
			}
		case []any:
			for _, x := range v {
				untimed(x)
			}
		}
	}

	for _, rc := range []struct{ method, path, body string }{
		{"POST", "/v1/sessions/{s}/step", mustJSON(oic.StepRequest{W: ws[0]})},
		{"POST", "/v1/sessions/{s}/step", mustJSON(oic.StepRequest{WS: ws[1:]})},
		{"POST", "/v1/sessions/{s}/step", `{"w":[1]}`},
		{"GET", "/v1/sessions/{s}", ""},
		{"GET", "/v1/sessions/{s}/trace", ""},
		{"GET", "/v1/sessions/{s}/trace?format=binary", ""},
		{"GET", "/v1/sessions/{s}/trace?format=xml", ""},
		{"GET", "/v1/fleets/{f}", ""},
		{"POST", "/v1/fleets/{f}/tick", `{"ticks":3}`},
		{"POST", "/v1/fleets/{f}/sessions", `{"seed":5}`},
		{"GET", "/v1/fleets/{f}/sessions/1", ""},
		{"GET", "/v1/fleets/{f}/sessions/1/trace", ""},
		{"GET", "/v1/fleets/{f}/sessions/1/trace?format=binary", ""},
		{"GET", "/v1/fleets/{f}/sessions/99", ""},
		{"DELETE", "/v1/fleets/{f}/sessions/1", ""},
		{"DELETE", "/v1/sessions/{s}", ""},
		{"DELETE", "/v1/fleets/{f}", ""},
	} {
		name := rc.method + " " + rc.path
		routed, twin := sess, sessTwin
		if strings.Contains(rc.path, "{f}") {
			routed, twin = fleet, fleetTwin
		}
		unknown := viaRouter(rc.method, strings.NewReplacer("{s}", "s-99", "{f}", "f-99").Replace(rc.path), rc.body)
		var er oic.ErrorResponse
		if unknown.status != http.StatusNotFound || json.Unmarshal(unknown.body, &er) != nil || er.Code != "not_found" {
			t.Errorf("%s, unknown ID: status %d body %s, want 404 not_found", name, unknown.status, unknown.body)
		}

		got := viaRouter(rc.method, strings.NewReplacer("{s}", sess, "{f}", fleet).Replace(rc.path), rc.body)
		want := direct(rc.method, strings.NewReplacer("{s}", sessTwin, "{f}", fleetTwin).Replace(rc.path), rc.body)
		if got.status != want.status || got.ctype != want.ctype {
			t.Errorf("%s: routed %d %q, shard %d %q", name, got.status, got.ctype, want.status, want.ctype)
			continue
		}
		switch {
		case !strings.Contains(want.ctype, "json"):
			if !bytes.Equal(got.body, want.body) {
				t.Errorf("%s: routed %d bytes differ from the shard's %d", name, len(got.body), len(want.body))
			}
		case want.status >= 400:
			var g, w oic.ErrorResponse
			if json.Unmarshal(got.body, &g) != nil || json.Unmarshal(want.body, &w) != nil ||
				g.Code == "" || g.Code != w.Code || g.Node != "a" {
				t.Errorf("%s: routed error %s, shard error %s", name, got.body, want.body)
			}
		default:
			var g, w map[string]any
			if err := json.Unmarshal(got.body, &g); err != nil {
				t.Fatalf("%s: routed body %s: %v", name, got.body, err)
			}
			if err := json.Unmarshal(want.body, &w); err != nil {
				t.Fatalf("%s: shard body %s: %v", name, want.body, err)
			}
			if id, ok := w["id"].(string); ok {
				if !strings.HasPrefix(id, twin) {
					t.Fatalf("%s: shard id %q, want prefix %q", name, id, twin)
				}
				w["id"] = routed + strings.TrimPrefix(id, twin)
			}
			untimed(g)
			untimed(w)
			if !reflect.DeepEqual(g, w) {
				t.Errorf("%s:\nrouted %s\nshard  %s", name, got.body, want.body)
			}
		}
	}
	if st := rt.Status(); st.Sessions != 0 || st.Fleets != 0 {
		t.Fatalf("after the DELETEs the router owns %d sessions, %d fleets", st.Sessions, st.Fleets)
	}

	// A lost session answers 410 session_lost on every route, and its
	// DELETE still drops the ownership row. (The shard still holds it, so
	// a later lookup would learn it again.)
	lost, _ := create("/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, oic.CreateSessionRequest{Plant: "acc"})
	e, _ := rt.session(t.Context(), lost)
	e.mu.Lock()
	e.lost = true
	e.mu.Unlock()
	for _, rc := range []struct{ method, path string }{
		{"GET", "/v1/sessions/" + lost},
		{"GET", "/v1/sessions/" + lost + "/trace"},
		{"POST", "/v1/sessions/" + lost + "/step"},
		{"DELETE", "/v1/sessions/" + lost},
	} {
		a := viaRouter(rc.method, rc.path, "")
		var er oic.ErrorResponse
		if a.status != http.StatusGone || json.Unmarshal(a.body, &er) != nil || er.Code != "session_lost" {
			t.Errorf("%s %s on a lost session: status %d body %s, want 410 session_lost", rc.method, rc.path, a.status, a.body)
		}
	}
	rt.mu.Lock()
	_, kept := rt.sessions[lost]
	rt.mu.Unlock()
	if kept {
		t.Fatal("DELETE of a lost session kept its ownership row")
	}

	// With the owner unreachable a session DELETE answers 503 shard_down
	// and still drops the row; a fleet DELETE unpins the fleet.
	gone, _ := create("/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, oic.CreateSessionRequest{Plant: "acc"})
	pinned, _ := create("/v1/fleets", fleetReq, fleetReq)
	nodes[0].ts.Close()
	for _, path := range []string{"/v1/sessions/" + gone, "/v1/fleets/" + pinned} {
		a := viaRouter("DELETE", path, "")
		var er oic.ErrorResponse
		if a.status != http.StatusServiceUnavailable || json.Unmarshal(a.body, &er) != nil || er.Code != "shard_down" {
			t.Errorf("DELETE %s on a dead owner: status %d body %s, want 503 shard_down", path, a.status, a.body)
		}
	}
	if st := rt.Status(); st.Sessions != 0 || st.Fleets != 0 {
		t.Fatalf("DELETEs on a dead owner left %d sessions, %d fleets owned", st.Sessions, st.Fleets)
	}
}

// TestFailoverByteIdentical kills the owning node outright and re-homes
// its session from the router's shadow episode: the survivor continues
// the episode and the final trace is byte-identical to an uninterrupted
// single-node run.
func TestFailoverByteIdentical(t *testing.T) {
	rt, nodes := testCluster(t, 2, server.Config{}, Config{DeathThreshold: 2})
	c := &rc{t: t, h: rt.Handler()}

	const half = 50
	x0, ws := accCase(t, 2*half)
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for i := 0; i < half; i++ {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[i]}, nil); st != http.StatusOK {
			t.Fatalf("step %d: status %d", i, st)
		}
	}

	// Kill the owner.
	e, _ := rt.session(t.Context(), info.ID)
	owner := e.nodeName()
	for _, n := range nodes {
		if n.name == owner {
			n.ts.Close()
		}
	}
	// A step against the dead shard answers the consistent error.
	var er oic.ErrorResponse
	st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[half]}, nil)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("step on dead shard: status %d, want 503", st)
	}
	{
		b, _ := json.Marshal(oic.StepRequest{W: ws[half]})
		req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/step", bytes.NewReader(b))
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Code != "shard_down" {
			t.Fatalf("dead shard error: %s, want shard_down", w.Body.String())
		}
	}

	// Declare death (threshold 2) and fail over explicitly.
	rt.ProbeOnce(context.Background())
	rt.ProbeOnce(context.Background())
	moved, failed, err := rt.FailoverNode(context.Background(), owner)
	if err != nil || moved != 1 || failed != 0 {
		t.Fatalf("failover: moved %d failed %d err %v", moved, failed, err)
	}
	if got := e.nodeName(); got == owner {
		t.Fatal("session still pinned to dead node")
	}

	// The client retries the unacknowledged step, then finishes.
	for i := half; i < 2*half; i++ {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[i]}, nil); st != http.StatusOK {
			t.Fatalf("step %d after failover: status %d", i, st)
		}
	}
	var got oic.SessionInfo
	if st := c.do("GET", "/v1/sessions/"+info.ID, nil, &got); st != http.StatusOK || got.T != 2*half || got.Violations != 0 || got.ID != info.ID {
		t.Fatalf("info after failover: status %d, %+v", st, got)
	}
	for _, n := range nodes {
		if n.name == e.nodeName() {
			if st := shardStatus(t, n, "/v1/sessions/"+info.ID); st != http.StatusOK {
				t.Fatalf("survivor %s: GET %s status %d, want the landing under the same ID", n.name, info.ID, st)
			}
		}
	}
	stc, bin := c.raw("GET", "/v1/sessions/"+info.ID+"/trace?format=binary")
	if stc != http.StatusOK {
		t.Fatalf("trace export: status %d", stc)
	}
	if want := referenceTrace(t, x0, ws); !bytes.Equal(bin, want) {
		t.Fatal("failover trace differs from uninterrupted reference")
	}
}

// TestDrainNode empties a node through the operator path and reports
// fleets as skipped, not failed.
func TestDrainNode(t *testing.T) {
	rt, nodes := testCluster(t, 2, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}

	// A few sessions with distinct configs so both nodes own some.
	ids := make([]string, 0, 4)
	for _, cfgReq := range []oic.CreateSessionRequest{
		{Plant: "acc", Seed: 1}, {Plant: "acc", Seed: 2},
		{Plant: "thermo", Seed: 3}, {Plant: "thermo", Memory: 2, Seed: 4},
	} {
		var info oic.SessionInfo
		if st := c.do("POST", "/v1/sessions", cfgReq, &info); st != http.StatusCreated {
			t.Fatalf("create: status %d", st)
		}
		for range 10 {
			if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", nil, nil); st != http.StatusOK {
				t.Fatalf("step: status %d", st)
			}
		}
		ids = append(ids, info.ID)
	}
	var fl oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 4, Size: 4, Seed: 9}, &fl); st != http.StatusCreated {
		t.Fatalf("fleet create: status %d", st)
	}

	victim := nodes[0].name
	var rep DrainReport
	if st := c.do("POST", "/v1/cluster/drain", DrainRequest{Node: victim}, &rep); st != http.StatusOK {
		t.Fatalf("drain: status %d", st)
	}
	if rep.Failed != 0 {
		t.Fatalf("drain failures: %+v", rep)
	}
	for _, id := range ids {
		e, ok := rt.session(t.Context(), id)
		if !ok {
			t.Fatalf("session %s vanished", id)
		}
		if e.nodeName() == victim {
			t.Fatalf("session %s still on drained node", id)
		}
		var got oic.SessionInfo
		if st := c.do("GET", "/v1/sessions/"+id, nil, &got); st != http.StatusOK || got.T != 10 {
			t.Fatalf("post-drain info %s: status %d, %+v", id, st, got)
		}
	}
	if nodes[0].srv.SessionCount() != 0 {
		t.Fatalf("drained node still holds %d sessions", nodes[0].srv.SessionCount())
	}
	st := rt.Status()
	for _, n := range st.Nodes {
		if n.Name == victim && n.OwnedFleets > 0 && rep.FleetsSkipped == 0 {
			t.Fatalf("fleet on drained node not reported skipped: %+v", rep)
		}
	}
}

// TestPlacementDeterministic: the ring maps equal fingerprints to equal
// nodes, every fingerprint to some node, and skips not-ready members.
func TestPlacementDeterministic(t *testing.T) {
	names := []string{"a", "b", "c"}
	r := newRing(names)
	counts := map[string]int{}
	fps := []string{
		"acc|cruise|bang-bang|m0|e0|s0|seed0",
		"thermo|heat|drl|m4|e500|s200|seed1",
		"orbit|hold|always-run|m0|e0|s0|seed0",
	}
	for _, fp := range fps {
		o1, o2 := r.order(fp), r.order(fp)
		if len(o1) != len(names) {
			t.Fatalf("order(%q) covers %d nodes, want %d", fp, len(o1), len(names))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("order(%q) not deterministic: %v vs %v", fp, o1, o2)
			}
		}
		counts[o1[0]]++
	}
	// Distribution sanity across many keys: no node starves.
	counts = map[string]int{}
	for i := 0; i < 300; i++ {
		counts[r.order(fps[0] + string(rune('a'+i%26)) + string(rune('a'+i/26)))[0]]++
	}
	for _, n := range names {
		if counts[n] == 0 {
			t.Fatalf("node %s never preferred: %v", n, counts)
		}
	}
}

// TestRouterReadyz: the router is ready iff at least one shard is.
func TestRouterReadyz(t *testing.T) {
	rt, nodes := testCluster(t, 2, server.Config{}, Config{DeathThreshold: 1})
	c := &rc{t: t, h: rt.Handler()}
	if st, _ := c.raw("GET", "/readyz"); st != http.StatusOK {
		t.Fatalf("readyz with live shards: %d", st)
	}
	if st, _ := c.raw("GET", "/healthz"); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}
	for _, n := range nodes {
		n.ts.Close()
	}
	rt.ProbeOnce(context.Background())
	if st, _ := c.raw("GET", "/readyz"); st != http.StatusServiceUnavailable {
		t.Fatalf("readyz with all shards down: %d, want 503", st)
	}
	// Liveness of the router itself is unaffected.
	if st, _ := c.raw("GET", "/healthz"); st != http.StatusOK {
		t.Fatalf("healthz with shards down: %d", st)
	}
	var er oic.ErrorResponse
	req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"plant":"acc"}`))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable || json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Code != "no_shard" {
		t.Fatalf("create with no shards: %d %s", w.Code, w.Body.String())
	}
}

// TestMembershipValidation covers the registry's structural checks.
func TestMembershipValidation(t *testing.T) {
	for _, bad := range []string{
		`{}`,
		`{"nodes":[]}`,
		`{"nodes":[{"name":"","addr":"http://x"}]}`,
		`{"nodes":[{"name":"a","addr":""}]}`,
		`{"nodes":[{"name":"a","addr":"http://x"},{"name":"a","addr":"http://y"}]}`,
	} {
		if _, err := ParseMembership([]byte(bad)); err == nil {
			t.Errorf("ParseMembership(%s) accepted", bad)
		}
	}
	m, err := ParseMembership([]byte(`{"nodes":[{"name":"a","addr":"http://x"},{"name":"b","addr":"http://y"}]}`))
	if err != nil || len(m.Nodes) != 2 {
		t.Fatalf("valid membership rejected: %v", err)
	}
}

// TestParseLoadGauges pins the scrape parser against a realistic
// exposition fragment.
func TestParseLoadGauges(t *testing.T) {
	body := []byte(`# HELP oicd_sessions_active live sessions
# TYPE oicd_sessions_active gauge
oicd_sessions_active 42
oicd_fleets_active 2
oicd_fleet_pressure{fleet="f-1"} 0.25
oicd_fleet_pressure{fleet="f-2"} 1.5
oicd_fleet_reclaimed_ratio{fleet="f-1"} 0.5
oicd_fleet_reclaimed_ratio{fleet="f-2"} 0.7
`)
	s, f, p, rec := parseLoadGauges(body)
	if s != 42 || f != 2 || p != 1.5 || rec != 0.6000000000000001 && rec != 0.6 {
		t.Fatalf("parseLoadGauges = %d %d %g %g", s, f, p, rec)
	}
}

// TestStatusRacesDeletes pins the Status()/delete lock-order fix: Status
// used to take each entry lock while holding rt.mu, while the delete
// handlers take the entry lock first and rt.mu second — a GET
// /v1/cluster racing a DELETE could deadlock the router. Run with -race
// this also checks the lock-free owner reads.
func TestStatusRacesDeletes(t *testing.T) {
	rt, _ := testCluster(t, 2, server.Config{}, Config{})
	h := rt.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := &rc{t: t, h: h}
				var info oic.SessionInfo
				if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: int64(i)}, &info); st != http.StatusCreated {
					return
				}
				c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{}, nil)
				c.do("DELETE", "/v1/sessions/"+info.ID, nil, nil)
				var fi oic.FleetInfo
				if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 4, Size: 1, Seed: int64(i)}, &fi); st != http.StatusCreated {
					return
				}
				c.do("DELETE", "/v1/fleets/"+fi.ID, nil, nil)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				_ = rt.Status()
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Status/delete race deadlocked")
	}
}

// TestRoutedFleetConcurrentRequests drives one routed fleet from several
// goroutines at once: ticks, fleet and member reads, and cluster status.
// Under -race this checks the pin's reads against the table; the shard
// serializes the ticks, and every one of them lands.
func TestRoutedFleetConcurrentRequests(t *testing.T) {
	rt, _ := testCluster(t, 2, server.Config{}, Config{})
	h := rt.Handler()
	c := &rc{t: t, h: h}
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 2, Size: 4, Seed: 6}, &fi); st != http.StatusCreated {
		t.Fatalf("fleet create: status %d", st)
	}
	const tickers, ticks = 3, 8
	var wg sync.WaitGroup
	for g := 0; g < tickers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &rc{t: t, h: h}
			for i := 0; i < ticks; i++ {
				if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{}, nil); st != http.StatusOK {
					t.Errorf("tick: status %d", st)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := &rc{t: t, h: h}
		for i := 0; i < 2*ticks; i++ {
			var info oic.FleetInfo
			st, b := c.raw("GET", "/v1/fleets/"+fi.ID)
			if err := json.Unmarshal(b, &info); st != http.StatusOK || err != nil || info.ID != fi.ID {
				t.Errorf("fleet get: status %d body %s", st, b)
				return
			}
			if st, b := c.raw("GET", "/v1/fleets/"+fi.ID+"/sessions/2"); st != http.StatusOK {
				t.Errorf("member get: status %d body %s", st, b)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if st := rt.Status(); st.Fleets != 1 {
				t.Errorf("status counts %d fleets, want 1", st.Fleets)
				return
			}
		}
	}()
	wg.Wait()
	var info oic.FleetInfo
	if st := c.do("DELETE", "/v1/fleets/"+fi.ID, nil, &info); st != http.StatusOK || info.Ticks != tickers*ticks {
		t.Fatalf("delete: status %d after %d ticks, want %d", st, info.Ticks, tickers*ticks)
	}
}

// TestClientCancelIsNotNodeFailure pins the liveness-accounting fix: a
// client disconnecting mid-request surfaces as a context-canceled proxy
// error, which must NOT count toward the owner node's death threshold —
// previously DeathThreshold aborts between probes declared a healthy
// node dead and fired failover against a node still serving.
func TestClientCancelIsNotNodeFailure(t *testing.T) {
	rt, nodes := testCluster(t, 1, server.Config{}, Config{DeathThreshold: 2})
	c := &rc{t: t, h: rt.Handler()}

	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}

	// Hammer the step path with pre-canceled client contexts, well past
	// the death threshold.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(oic.StepRequest{})
		req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/step", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("canceled step %d: status %d, want 503", i, w.Code)
		}
	}
	n := rt.byName[nodes[0].name]
	if !n.isReady() {
		t.Fatal("client cancellations marked a healthy node not-ready")
	}
	n.mu.Lock()
	dead, fails := n.dead, n.consecFails
	n.mu.Unlock()
	if dead || fails != 0 {
		t.Fatalf("client cancellations fed liveness accounting: dead=%v consecFails=%d", dead, fails)
	}

	// The node keeps serving.
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{}, nil); st != http.StatusOK {
		t.Fatalf("step after cancels: status %d", st)
	}

	// And a successful round trip clears an accumulated failure streak.
	n.mu.Lock()
	n.consecFails = 1
	n.mu.Unlock()
	if st := c.do("GET", "/v1/sessions/"+info.ID, nil, nil); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	n.mu.Lock()
	fails = n.consecFails
	n.mu.Unlock()
	if fails != 0 {
		t.Fatalf("successful round trip did not reset consecFails: %d", fails)
	}
}

// TestRouterRestartRelearns builds a second router over shards a first
// router has been serving: sessions stepped, one migrated, a traced fleet
// ticked. The second router holds no table, yet every ID the first one
// handed out answers with the shard's own body, its traces byte for byte;
// sessions keep stepping and the fleet keeps ticking; a failover lands
// byte-identical to an uninterrupted run from a shadow rebuilt out of the
// owner's trace export; and new creates get IDs never issued before.
// Goroutines stepping one session through the fresh router share one
// table entry, so its shadow holds every acknowledged step.
func TestRouterRestartRelearns(t *testing.T) {
	cfg := Config{DeathThreshold: 2}
	rt1, nodes := testCluster(t, 2, server.Config{}, cfg)
	c1 := &rc{t: t, h: rt1.Handler()}
	const steps = 40
	x0, ws := accCase(t, steps)
	eng, err := oic.NewEngine(oic.Config{Plant: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	x0b, wsb, err := eng.DrawCase(11, steps)
	if err != nil {
		t.Fatal(err)
	}

	create := func(c *rc, path string, body any) string {
		var out struct{ ID string }
		if st := c.do("POST", path, body, &out); st != http.StatusCreated {
			t.Fatalf("create %s: status %d", path, st)
		}
		return out.ID
	}
	step := func(c *rc, id string, w [][]float64) {
		if st := c.do("POST", "/v1/sessions/"+id+"/step", oic.StepRequest{WS: w}, nil); st != http.StatusOK {
			t.Fatalf("step %s: status %d", id, st)
		}
	}
	moved := create(c1, "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0})
	failed := create(c1, "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0b})
	shared := create(c1, "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 3})
	fleet := create(c1, "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: 2, Size: 3, Seed: 4, Trace: true})
	step(c1, moved, ws[:steps/2])
	step(c1, failed, wsb[:steps/2])
	step(c1, shared, [][]float64{{0, 0}, {0, 0}})
	if st := c1.do("POST", "/v1/fleets/"+fleet+"/tick", oic.FleetTickRequest{Ticks: 3}, nil); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	if _, err := rt1.MigrateSession(t.Context(), moved, ""); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	issued := map[string]bool{moved: true, failed: true, shared: true, fleet: true}

	// The restart: a second router over the same shards, with no table.
	mem := &Membership{}
	for _, n := range nodes {
		mem.Nodes = append(mem.Nodes, Node{Name: n.name, Addr: n.ts.URL})
	}
	rt2, err := New(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt2.ProbeOnce(t.Context())
	c2 := &rc{t: t, h: rt2.Handler()}

	// Several goroutines step one session the new router has never seen,
	// each with zero disturbances, so the episode does not depend on
	// their order.
	const stepper, each = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < stepper; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := httptest.NewRequest("POST", "/v1/sessions/"+shared+"/step", strings.NewReader(`{"w":[0,0]}`))
				w := httptest.NewRecorder()
				rt2.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("concurrent step: status %d body %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	rt2.mu.Lock()
	e := rt2.sessions[shared]
	tableLen := len(rt2.sessions)
	rt2.mu.Unlock()
	if e == nil || tableLen != 1 {
		t.Fatalf("after concurrent first steps the table holds %d entries (entry for %s: %v), want 1", tableLen, shared, e != nil)
	}
	if n := e.sh.rec.Len(); n != 2+stepper*each {
		t.Fatalf("shared entry's shadow holds %d steps, want %d", n, 2+stepper*each)
	}

	// Every pre-restart ID answers through the new router exactly as its
	// shard answers, binary traces included.
	owner := func(path string) *testNode {
		for _, n := range nodes {
			if shardStatus(t, n, path) == http.StatusOK {
				return n
			}
		}
		t.Fatalf("no shard holds %s", path)
		return nil
	}
	for _, path := range []string{
		"/v1/sessions/" + moved, "/v1/sessions/" + moved + "/trace?format=binary",
		"/v1/sessions/" + failed, "/v1/sessions/" + failed + "/trace?format=binary",
		"/v1/sessions/" + shared, "/v1/sessions/" + shared + "/trace?format=binary",
		"/v1/fleets/" + fleet, "/v1/fleets/" + fleet + "/sessions/1/trace?format=binary",
	} {
		st, got := c2.raw("GET", path)
		resp, err := http.Get(owner(path).ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("GET %s through the new router: status %d, %d bytes; the shard's %d bytes", path, st, len(got), len(want))
		}
	}
	_, episode := c2.raw("GET", "/v1/sessions/"+shared+"/trace?format=binary")
	if bin, err := oic.EncodeTrace(e.sh.rec.Trace()); err != nil || !bytes.Equal(bin, episode) {
		t.Fatalf("shared session's shadow differs from its owner's episode (%v)", err)
	}

	// The migrated session finishes its episode through the new router.
	step(c2, moved, ws[steps/2:])
	if st, bin := c2.raw("GET", "/v1/sessions/"+moved+"/trace?format=binary"); st != http.StatusOK || !bytes.Equal(bin, referenceTrace(t, x0, ws)) {
		t.Fatalf("migrated session after the restart: status %d, trace differs from the uninterrupted reference", st)
	}
	var fi oic.FleetInfo
	if st := c2.do("POST", "/v1/fleets/"+fleet+"/tick", oic.FleetTickRequest{Ticks: 2}, nil); st != http.StatusOK {
		t.Fatalf("tick through the new router: status %d", st)
	}
	if st := c2.do("GET", "/v1/fleets/"+fleet, nil, &fi); st != http.StatusOK || fi.Ticks != 5 || fi.ID != fleet {
		t.Fatalf("fleet after the restart: status %d, %+v", st, fi)
	}

	// Kill the owner of the session the new router has only read; its
	// shadow came from the trace export.
	dead := rt2.byName[owner("/v1/sessions/"+failed).name]
	for _, n := range nodes {
		if n.name == dead.Name {
			n.ts.Close()
		}
	}
	rt2.ProbeOnce(t.Context())
	rt2.ProbeOnce(t.Context())
	if n, fails, err := rt2.FailoverNode(t.Context(), dead.Name); err != nil || n == 0 || fails != 0 {
		t.Fatalf("failover after the restart: moved %d failed %d err %v", n, fails, err)
	}
	step(c2, failed, wsb[steps/2:])
	if st, bin := c2.raw("GET", "/v1/sessions/"+failed+"/trace?format=binary"); st != http.StatusOK || !bytes.Equal(bin, referenceTrace(t, x0b, wsb)) {
		t.Fatalf("failed-over session: status %d, trace differs from the uninterrupted reference", st)
	}

	// New objects get IDs no router issued before.
	for _, id := range []string{
		create(c2, "/v1/sessions", oic.CreateSessionRequest{Plant: "acc"}),
		create(c2, "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 1}),
	} {
		if issued[id] {
			t.Fatalf("the new router reissued %s", id)
		}
	}
}

// TestRouterBodyLimit: the router reads a body under the same limit oicd
// decodes under. A 9 MiB body passes through whole, and one past the
// limit is refused as too large, as the shard refuses it.
func TestRouterBodyLimit(t *testing.T) {
	rt, nodes := testCluster(t, 1, server.Config{}, Config{})
	x0, ws := accCase(t, 4)
	req, err := json.Marshal(oic.ReplayRequest{TraceBin: referenceTrace(t, x0, ws)})
	if err != nil {
		t.Fatal(err)
	}
	// pad puts whitespace after the opening brace, so a cut body is
	// invalid JSON.
	pad := func(size int) string {
		return "{" + strings.Repeat(" ", size-len(req)) + string(req[1:])
	}
	for _, c := range []struct {
		size   int
		status int
		code   string
	}{
		{9 << 20, http.StatusOK, ""},
		{oic.MaxRequestBytes + 1, http.StatusRequestEntityTooLarge, "too_large"},
	} {
		body := pad(c.size)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/replay", strings.NewReader(body)))
		resp, err := http.Post(nodes[0].ts.URL+"/v1/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var er, der oic.ErrorResponse
		_ = json.Unmarshal(w.Body.Bytes(), &er)
		_ = json.Unmarshal(direct, &der)
		if w.Code != c.status || er.Code != c.code || resp.StatusCode != c.status || der.Code != c.code {
			t.Errorf("%d-byte replay: routed %d %q, shard %d %q; want %d %q",
				c.size, w.Code, er.Code, resp.StatusCode, der.Code, c.status, c.code)
		}
	}
}

// TestLearnPrefersUnfrozenCopy: when two shards hold a session the router
// has not seen, the unfrozen copy wins over a frozen one (a migration
// source whose delete failed), even on a later node in membership order.
// A session whose only copy is frozen (a router stopped between a
// migration's freeze and its landing) is unfrozen and steps on.
func TestLearnPrefersUnfrozenCopy(t *testing.T) {
	rt, nodes := testCluster(t, 2, server.Config{}, Config{})
	post := func(n *testNode, path string, body any) []byte {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(n.ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s on %s: status %d body %s", path, n.name, resp.StatusCode, out)
		}
		return out
	}
	var info oic.SessionInfo
	if err := json.Unmarshal(post(nodes[0], "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 2, Trace: true}), &info); err != nil {
		t.Fatal(err)
	}
	post(nodes[0], "/v1/sessions/"+info.ID+"/step", oic.StepRequest{WS: [][]float64{{0, 0}, {0, 0}}})
	resp, err := http.Get(nodes[0].ts.URL + "/v1/sessions/" + info.ID + "/trace?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	bin, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	post(nodes[0], "/v1/sessions/"+info.ID+"/freeze", nil)
	post(nodes[1], "/v1/sessions/resume", oic.ResumeSessionRequest{ID: info.ID, TraceBin: bin})

	c := &rc{t: t, h: rt.Handler()}
	var res oic.StepResult
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: []float64{0, 0}}, &res); st != http.StatusOK || res.T != 2 {
		t.Fatalf("step through the router: status %d, %+v", st, res)
	}
	if e, _ := rt.session(t.Context(), info.ID); e.nodeName() != nodes[1].name {
		t.Fatalf("router learned the copy on %s, want the unfrozen one on %s", e.nodeName(), nodes[1].name)
	}

	var only oic.SessionInfo
	if err := json.Unmarshal(post(nodes[0], "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 3, Trace: true}), &only); err != nil {
		t.Fatal(err)
	}
	post(nodes[0], "/v1/sessions/"+only.ID+"/freeze", nil)
	if st := c.do("POST", "/v1/sessions/"+only.ID+"/step", oic.StepRequest{W: []float64{0, 0}}, &res); st != http.StatusOK || res.T != 0 {
		t.Fatalf("step of a session frozen on its only shard: status %d, %+v", st, res)
	}
}

// TestLookupRacingDelete: a lookup that asked the shards before a DELETE
// of the same ID reached them does not put back the row the DELETE
// dropped, for sessions and fleets alike.
func TestLookupRacingDelete(t *testing.T) {
	rt, nodes := testCluster(t, 1, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}
	for _, path := range []string{"/v1/sessions", "/v1/fleets"} {
		var out struct{ ID string }
		resp, err := http.Post(nodes[0].ts.URL+path, "application/json", strings.NewReader(`{"plant":"acc","trace":true,"size":1}`))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("create on the shard: status %d (%v)", resp.StatusCode, err)
		}
		// The DELETE arrives, and completes, while the lookup is asking.
		deleteMidLookup := func() {
			if st := c.do("DELETE", path+"/"+out.ID, nil, nil); st != http.StatusOK {
				t.Fatalf("DELETE %s: status %d", out.ID, st)
			}
		}
		var found bool
		if path == "/v1/sessions" {
			_, found = lookup(rt, rt.sessions, out.ID, func() (*sessEntry, bool) {
				e := rt.learnSession(t.Context(), out.ID)
				deleteMidLookup()
				return e, e != nil
			})
		} else {
			_, found = lookup(rt, rt.fleets, out.ID, func() (*nodeState, bool) {
				deleteMidLookup()
				return rt.nodes[0], true
			})
		}
		rt.mu.Lock()
		_, sHeld := rt.sessions[out.ID]
		_, fHeld := rt.fleets[out.ID]
		tombstones := len(rt.dropped)
		rt.mu.Unlock()
		if found || sHeld || fHeld || tombstones != 0 {
			t.Fatalf("%s %s: lookup found %v, table holds it %v, %d tombstones left; want none", path, out.ID, found, sHeld || fHeld, tombstones)
		}
	}
}

// TestRouterForgetsGoneSession: a session its shard no longer holds (here
// deleted straight on the shard, as a TTL eviction would drop it) answers
// 404 not_found through the router, on a step, on a GET, and on eight
// steps and GETs sent at once, and the router drops its row and shadow,
// so /v1/cluster counts it no more.
func TestRouterForgetsGoneSession(t *testing.T) {
	rt, nodes := testCluster(t, 1, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}
	for _, route := range []string{"step", "get", "concurrent"} {
		var info oic.SessionInfo
		if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Seed: 4, Trace: true}, &info); st != http.StatusCreated {
			t.Fatalf("create: status %d", st)
		}
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: []float64{0, 0}}, nil); st != http.StatusOK {
			t.Fatalf("step: status %d", st)
		}
		if st := rt.Status(); st.Sessions != 1 || st.Nodes[0].OwnedSessions != 1 {
			t.Fatalf("before the shard forgets: sessions %d, owned %d; want 1, 1", st.Sessions, st.Nodes[0].OwnedSessions)
		}
		req, err := http.NewRequest(http.MethodDelete, nodes[0].ts.URL+"/v1/sessions/"+info.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		send := func(step bool) (int, []byte) {
			if !step {
				req := httptest.NewRequest("GET", "/v1/sessions/"+info.ID, nil)
				w := httptest.NewRecorder()
				c.h.ServeHTTP(w, req)
				return w.Code, w.Body.Bytes()
			}
			req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/step", strings.NewReader(`{"w":[0,0]}`))
			w := httptest.NewRecorder()
			c.h.ServeHTTP(w, req)
			return w.Code, w.Body.Bytes()
		}
		notFound := func(status int, body []byte) bool {
			var er oic.ErrorResponse
			return status == http.StatusNotFound && json.Unmarshal(body, &er) == nil && er.Code == "not_found"
		}
		if route == "concurrent" {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if status, body := send(g%2 == 0); !notFound(status, body) {
						t.Errorf("concurrent request %d: status %d body %s, want 404 not_found", g, status, body)
					}
				}()
			}
			wg.Wait()
		} else if status, body := send(route == "step"); !notFound(status, body) {
			t.Fatalf("%s of a session the shard deleted: status %d body %s, want 404 not_found", route, status, body)
		}
		if st := rt.Status(); st.Sessions != 0 || st.Nodes[0].OwnedSessions != 0 {
			t.Fatalf("after a %s answered 404: sessions %d, owned %d; want 0, 0", route, st.Sessions, st.Nodes[0].OwnedSessions)
		}
	}
}

// TestLandingReplacesStaleCopy: a failover leaves its source's copy in
// the source's journal, so a source that comes back holds every session
// it lost, unfrozen, under the same IDs. A migration back to it and a
// failover back to it both replace that stale copy and land byte-identical
// to an uninterrupted run.
func TestLandingReplacesStaleCopy(t *testing.T) {
	dir := t.TempDir()
	// startA serves a journaled oicd on addr ("" picks a port), recovering
	// whatever the journal holds first.
	startA := func(addr string) (*server.Server, *httptest.Server) {
		srv := server.New(server.Config{})
		if err := srv.OpenJournal(journal.Options{Dir: dir, Policy: journal.SyncEveryTick}); err != nil {
			t.Fatal(err)
		}
		run, err := srv.BeginJournalRecovery(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		if addr != "" {
			l, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			ts.Listener.Close()
			ts.Listener = l
		}
		ts.Start()
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return srv, ts
	}
	srvA, tsA := startA("")
	srvB := server.New(server.Config{})
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(func() { tsB.Close(); srvB.Close() })
	rt, err := New(&Membership{Nodes: []Node{{Name: "a", Addr: tsA.URL}, {Name: "b", Addr: tsB.URL}}}, Config{DeathThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(t.Context())
	c := &rc{t: t, h: rt.Handler()}
	declareDead := func(name string) {
		rt.ProbeOnce(t.Context())
		rt.ProbeOnce(t.Context())
		if moved, failed, err := rt.FailoverNode(t.Context(), name); err != nil || failed != 0 || moved == 0 {
			t.Fatalf("failover of %s: moved %d failed %d err %v", name, moved, failed, err)
		}
	}
	step := func(id string, ws [][]float64) {
		if st := c.do("POST", "/v1/sessions/"+id+"/step", oic.StepRequest{WS: ws}, nil); st != http.StatusOK {
			t.Fatalf("step %s: status %d", id, st)
		}
	}
	const steps = 30
	eng, err := oic.NewEngine(oic.Config{Plant: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	type episode struct {
		id string
		x0 []float64
		ws [][]float64
	}
	eps := make([]episode, 2)
	for i := range eps {
		x0, ws, err := eng.DrawCase(int64(20+i), steps)
		if err != nil {
			t.Fatal(err)
		}
		var info oic.SessionInfo
		if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
			t.Fatalf("create: status %d", st)
		}
		if e, _ := rt.session(t.Context(), info.ID); e.nodeName() != "a" {
			if _, err := rt.MigrateSession(t.Context(), info.ID, "a"); err != nil {
				t.Fatal(err)
			}
		}
		eps[i] = episode{info.ID, x0, ws}
		step(info.ID, ws[:steps/3])
	}

	// a crashes; both sessions fail over to b and step on there.
	tsA.Close()
	srvA.Close()
	declareDead("a")
	for _, ep := range eps {
		step(ep.id, ep.ws[steps/3:2*steps/3])
	}
	// a comes back from its journal on the same address, holding both
	// sessions where they were when it died.
	_, tsA = startA(tsA.Listener.Addr().String())
	rt.ProbeOnce(t.Context())
	for _, ep := range eps {
		var info oic.SessionInfo
		resp, err := http.Get(tsA.URL + "/v1/sessions/" + ep.id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || info.T != steps/3 || info.Frozen {
			t.Fatalf("recovered a: %s is %+v (%v), want the stale unfrozen copy at t=%d", ep.id, info, err, steps/3)
		}
	}

	// Migrating the first session back to a replaces a's copy.
	if _, err := rt.MigrateSession(t.Context(), eps[0].id, "a"); err != nil {
		t.Fatalf("migration back to a: %v", err)
	}
	// b dies; the second session fails over onto a's stale copy.
	tsB.Close()
	declareDead("b")
	for _, ep := range eps {
		if e, _ := rt.session(t.Context(), ep.id); e.nodeName() != "a" {
			t.Fatalf("%s is on %s, want a", ep.id, e.nodeName())
		}
		step(ep.id, ep.ws[2*steps/3:])
		if st, bin := c.raw("GET", "/v1/sessions/"+ep.id+"/trace?format=binary"); st != http.StatusOK || !bytes.Equal(bin, referenceTrace(t, ep.x0, ep.ws)) {
			t.Fatalf("%s: status %d, trace differs from the uninterrupted reference", ep.id, st)
		}
	}
}
