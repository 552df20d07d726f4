package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"oic/internal/obs"
	"oic/internal/server"
	"oic/pkg/oic"
)

// lockedBuf is a goroutine-safe log sink (slog handlers issue one Write
// per record, but the server logs from request goroutines).
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterMetricsScrapeValid proxies real traffic through the router
// and validates its /metrics exposition with the strict parser.
func TestRouterMetricsScrapeValid(t *testing.T) {
	rt, _ := testCluster(t, 2, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}

	x0, ws := accCase(t, 4)
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	for i := 0; i < 4; i++ {
		if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[i]}, nil); st != http.StatusOK {
			t.Fatalf("step %d: status %d", i, st)
		}
	}

	st, body := c.raw("GET", "/metrics")
	if st != http.StatusOK {
		t.Fatalf("/metrics: status %d", st)
	}
	if err := obs.ValidateMetrics(body); err != nil {
		t.Fatalf("invalid exposition: %v\n---\n%s", err, body)
	}
	if !strings.Contains(string(body), "oicd_router_proxy_seconds_count ") {
		t.Fatalf("exposition missing proxy histogram:\n%s", body)
	}
}

// TestClusterObservabilitySmoke is the cross-node correlation acceptance
// test: one client-supplied trace ID must appear in the router's log AND
// the owning shard's log for the same request, and a live migration must
// surface all five phases (freeze, export, replay, verify, repoint) with
// nonzero durations at GET /v1/debug/ops.
func TestClusterObservabilitySmoke(t *testing.T) {
	// Two real oicd nodes with debug JSON logs captured per node.
	logs := make([]*lockedBuf, 2)
	mem := &Membership{}
	nodes := make([]*testNode, 2)
	for i := 0; i < 2; i++ {
		logs[i] = &lockedBuf{}
		lg, err := obs.NewLogger(logs[i], "debug", "json")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Logger: lg})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		name := string(rune('a' + i))
		nodes[i] = &testNode{name: name, srv: srv, ts: ts}
		mem.Nodes = append(mem.Nodes, Node{Name: name, Addr: ts.URL})
	}
	rtLog := &lockedBuf{}
	rtLogger, err := obs.NewLogger(rtLog, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(mem, Config{Logger: rtLogger})
	if err != nil {
		t.Fatal(err)
	}
	rt.ProbeOnce(t.Context())
	c := &rc{t: t, h: rt.Handler()}

	x0, ws := accCase(t, 8)
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}

	// Step once with an injected trace ID.
	const traceID = "0123456789abcdef"
	b, _ := json.Marshal(oic.StepRequest{W: ws[0]})
	req := httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/step", bytes.NewReader(b))
	req.Header.Set(obs.TraceHeader, traceID)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("traced step: status %d", w.Code)
	}
	if got := w.Header().Get(obs.TraceHeader); got != traceID {
		t.Fatalf("router echoed trace ID %q, want %q", got, traceID)
	}

	// The same ID must be greppable in the router's log and in the owning
	// shard's log.
	if !strings.Contains(rtLog.String(), traceID) {
		t.Fatalf("router log missing trace ID %s:\n%s", traceID, rtLog.String())
	}
	e, ok := rt.session(t.Context(), info.ID)
	if !ok {
		t.Fatal("router lost the session entry")
	}
	ownerLogged := false
	for i, n := range nodes {
		if n.name == e.nodeName() {
			ownerLogged = strings.Contains(logs[i].String(), traceID)
		}
	}
	if !ownerLogged {
		t.Fatalf("owning shard %s log missing trace ID %s", e.nodeName(), traceID)
	}

	// Live-migrate to the other node, then /v1/debug/ops must report a
	// migration span with all five phases nonzero.
	var target string
	for _, n := range nodes {
		if n.name != e.nodeName() {
			target = n.name
		}
	}
	var rep MigrateReport
	if st := c.do("POST", "/v1/cluster/migrate", MigrateRequest{Session: info.ID, Target: target}, &rep); st != http.StatusOK {
		t.Fatalf("migrate: status %d", st)
	}

	st, body := c.raw("GET", "/v1/debug/ops")
	if st != http.StatusOK {
		t.Fatalf("debug/ops: status %d", st)
	}
	var out struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding debug/ops %q: %v", body, err)
	}
	var mig *obs.SpanRecord
	for i := range out.Spans {
		if out.Spans[i].Op == "migration" && out.Spans[i].ID == info.ID {
			mig = &out.Spans[i]
			break
		}
	}
	if mig == nil {
		t.Fatalf("no migration span in debug/ops: %s", body)
	}
	if mig.Err != "" {
		t.Fatalf("migration span recorded error: %s", mig.Err)
	}
	want := []string{"freeze", "export", "replay", "verify", "repoint"}
	if len(mig.Phases) != len(want) {
		t.Fatalf("migration span phases %+v, want %v", mig.Phases, want)
	}
	for i, ph := range mig.Phases {
		if ph.Name != want[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Name, want[i])
		}
		if ph.Elapsed <= 0 {
			t.Errorf("phase %q has zero duration", ph.Name)
		}
	}

	// The migration itself logs under the router component with the op's
	// outcome.
	if !strings.Contains(rtLog.String(), "migration complete") {
		t.Errorf("router log missing migration completion record")
	}
}

// TestRouterForwardsNegotiationHeaders: the router must pass the client's
// Accept and Content-Type through to the shard — the binary trace export
// depends on it — and annotate proxied error bodies with the shard name.
func TestRouterForwardsNegotiationHeaders(t *testing.T) {
	rt, _ := testCluster(t, 2, server.Config{}, Config{})
	c := &rc{t: t, h: rt.Handler()}

	x0, ws := accCase(t, 2)
	var info oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", X0: x0}, &info); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: ws[0]}, nil); st != http.StatusOK {
		t.Fatal("step failed")
	}

	// Binary trace export honours the query form regardless, but the
	// proxied response must carry the shard's Content-Type through.
	req := httptest.NewRequest("GET", "/v1/sessions/"+info.ID+"/trace?format=binary", nil)
	req.Header.Set("Accept", "application/octet-stream")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("trace export: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "octet-stream") {
		t.Fatalf("trace export Content-Type %q, want octet-stream", ct)
	}

	// A shard-originated error names the shard.
	req = httptest.NewRequest("POST", "/v1/sessions/"+info.ID+"/step",
		strings.NewReader(`{"w": [1]}`)) // wrong disturbance dimension
	req.Header.Set("Content-Type", "application/json")
	w = httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad step: status %d, body %s", w.Code, w.Body.String())
	}
	var er oic.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Node == "" {
		t.Fatalf("proxied error missing shard node: %+v", er)
	}
	if er.Node != "a" && er.Node != "b" {
		t.Fatalf("proxied error node %q, want a or b", er.Node)
	}
}
