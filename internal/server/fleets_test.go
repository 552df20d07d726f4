package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oic/pkg/oic"
)

func TestFleetEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})

	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: oic.PolicyAlwaysRun,
		ComputeBudget: 2, Size: 8, Seed: 1,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if fi.ID == "" || fi.Sessions != 8 || fi.Budget != 2 {
		t.Fatalf("create info: %+v", fi)
	}
	if fi.MaxSkipBudget < 1 {
		t.Fatalf("MaxSkipBudget = %d, want ≥ 1", fi.MaxSkipBudget)
	}

	// Five zero-disturbance ticks: with always-run and budget 2, six of
	// eight members shed every tick while they stay inside X′.
	var tr oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 5}, &tr); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	if len(tr.Reports) != 5 {
		t.Fatalf("got %d reports, want 5", len(tr.Reports))
	}
	for i, rep := range tr.Reports {
		if rep.Sessions != 8 {
			t.Fatalf("report %d: sessions %d", i, rep.Sessions)
		}
		if rep.Violations != 0 {
			t.Fatalf("report %d: %d violations", i, rep.Violations)
		}
		if rep.Computes > 2 && rep.Overrun == 0 {
			t.Fatalf("report %d: computes %d over budget without overrun", i, rep.Computes)
		}
	}

	// Single tick with explicit disturbances for two members.
	var single oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		WS: map[int][]float64{0: {0.5, 0}, 1: {-0.5, 0}},
	}, &single); st != http.StatusOK {
		t.Fatalf("tick ws: status %d", st)
	}

	// Admit a ninth member, inspect it, evict it.
	var mi oic.FleetMemberInfo
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/sessions", oic.FleetAdmitRequest{Seed: 9}, &mi); st != http.StatusCreated {
		t.Fatalf("admit: status %d", st)
	}
	if mi.T != 0 || mi.SkipBudget < 1 {
		t.Fatalf("admitted member: %+v", mi)
	}
	var got oic.FleetMemberInfo
	if st := c.do("GET", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fi.ID, mi.ID), nil, &got); st != http.StatusOK {
		t.Fatalf("member get: status %d", st)
	}
	if st := c.do("DELETE", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fi.ID, mi.ID), nil, nil); st != http.StatusOK {
		t.Fatalf("member delete: status %d", st)
	}
	if st := c.do("GET", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fi.ID, mi.ID), nil, nil); st != http.StatusNotFound {
		t.Fatalf("member get after evict: status %d, want 404", st)
	}

	// Stats reflect the six executed ticks.
	var snap oic.FleetInfo
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, &snap); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	if snap.Ticks != 6 || snap.Sessions != 8 || snap.Violations != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.ReclaimedRatio <= 0.5 {
		t.Fatalf("reclaimed ratio %.2f, want > 0.5 (budget 2 of 8 always-run)", snap.ReclaimedRatio)
	}

	var closed oic.FleetInfo
	if st := c.do("DELETE", "/v1/fleets/"+fi.ID, nil, &closed); st != http.StatusOK {
		t.Fatalf("delete: status %d", st)
	}
	if !closed.Closed {
		t.Fatalf("delete response not marked closed: %+v", closed)
	}
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", st)
	}
}

func TestFleetValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  oic.CreateFleetRequest
		want int
	}{
		{"missing plant", oic.CreateFleetRequest{}, http.StatusBadRequest},
		{"unknown plant", oic.CreateFleetRequest{Plant: "nope"}, http.StatusNotFound},
		{"oversized max_sessions", oic.CreateFleetRequest{Plant: "acc", MaxSessions: maxFleetSessions + 1}, http.StatusBadRequest},
		{"size over max", oic.CreateFleetRequest{Plant: "acc", MaxSessions: 4, Size: 5}, http.StatusBadRequest},
		{"negative budget", oic.CreateFleetRequest{Plant: "acc", ComputeBudget: -1}, http.StatusBadRequest},
		{"negative workers", oic.CreateFleetRequest{Plant: "acc", Workers: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er oic.ErrorResponse
		if st := c.do("POST", "/v1/fleets", tc.req, &er); st != tc.want {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, st, tc.want, er)
		}
	}

	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 2, Seed: 1}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: maxTicksPerReq + 1}, nil); st != http.StatusBadRequest {
		t.Fatalf("oversized ticks: status %d, want 400", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		Ticks: 2, WS: map[int][]float64{0: {0, 0}},
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("ws with ticks>1: status %d, want 400", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		WS: map[int][]float64{99: {0, 0}},
	}, nil); st != http.StatusNotFound {
		t.Fatalf("unknown member in ws: status %d, want 404", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{
		WS: map[int][]float64{0: {1}},
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("short disturbance: status %d, want 400", st)
	}
	if st := c.do("GET", "/v1/fleets/"+fi.ID+"/sessions/abc", nil, nil); st != http.StatusBadRequest {
		t.Fatalf("non-integer member id: status %d, want 400", st)
	}
	if st := c.do("POST", "/v1/fleets/nope/tick", nil, nil); st != http.StatusNotFound {
		t.Fatalf("unknown fleet tick: status %d, want 404", st)
	}
}

func TestFleetCapacity(t *testing.T) {
	_, c := newTestServer(t, Config{MaxFleets: 1})
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc"}, nil); st != http.StatusCreated {
		t.Fatalf("first create: status %d", st)
	}
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc"}, &er); st != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429 (%+v)", st, er)
	}
	if er.Code != "capacity" {
		t.Fatalf("error code %q, want capacity", er.Code)
	}
}

func TestFleetAdmissionFullOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", MaxSessions: 2, Size: 2, Seed: 1,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var er oic.ErrorResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/sessions", oic.FleetAdmitRequest{Seed: 3}, &er); st != http.StatusTooManyRequests {
		t.Fatalf("admit past capacity: status %d (%+v)", st, er)
	}
	if er.Code != "capacity" {
		t.Fatalf("error code %q, want capacity", er.Code)
	}
}

func TestFleetEviction(t *testing.T) {
	now := time.Now()
	cfg := Config{SessionTTL: time.Minute, Now: func() time.Time { return now }}
	srv, c := newTestServer(t, cfg)
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 2, Seed: 1}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	now = now.Add(30 * time.Second)
	if n := srv.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d before TTL", n)
	}
	now = now.Add(2 * time.Minute)
	if n := srv.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, nil); st != http.StatusNotFound {
		t.Fatalf("get after eviction: status %d, want 404", st)
	}
}

func TestFleetElasticOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{})

	// Validation of the elastic wire fields.
	bad := []oic.CreateFleetRequest{
		{Plant: "acc", Elastic: &oic.ElasticConfig{MaxBudget: 8}}, // no deadline
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{}},
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{MinBudget: 9, MaxBudget: 8}},
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{MaxBudget: 8, TargetMargin: time.Second}},
		{Plant: "acc", TickDeadline: time.Second, Elastic: &oic.ElasticConfig{MaxBudget: maxFleetSessions + 1}},
	}
	for i, req := range bad {
		var er oic.ErrorResponse
		if st := c.do("POST", "/v1/fleets", req, &er); st != http.StatusBadRequest {
			t.Errorf("bad elastic %d: status %d, want 400 (%+v)", i, st, er)
		}
	}

	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: oic.PolicyAlwaysRun,
		ComputeBudget: 2, Size: 8, Seed: 1, MaxSessions: 16,
		TickDeadline: time.Second,
		Elastic:      &oic.ElasticConfig{MinBudget: 2, MaxBudget: 6, TargetMargin: 100 * time.Millisecond},
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	var tr oic.FleetTickResponse
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 8}, &tr); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	for i, rep := range tr.Reports {
		if rep.Violations != 0 {
			t.Fatalf("report %d: %d violations", i, rep.Violations)
		}
		if rep.NextBudget < 2 || rep.NextBudget > 6 {
			t.Fatalf("report %d: NextBudget %d outside [2, 6]", i, rep.NextBudget)
		}
		if rep.EffectiveMaxSessions < 8 || rep.EffectiveMaxSessions > 24 {
			t.Fatalf("report %d: EffectiveMaxSessions %d outside [½, 3/2]×16", i, rep.EffectiveMaxSessions)
		}
	}
	var snap oic.FleetInfo
	if st := c.do("GET", "/v1/fleets/"+fi.ID, nil, &snap); st != http.StatusOK {
		t.Fatalf("get: status %d", st)
	}
	// Test-box margins dwarf the 1s deadline, so the loop must have grown
	// the budget to its cap.
	if snap.Budget != 6 {
		t.Fatalf("snapshot budget %d, want MaxBudget 6 under huge margins", snap.Budget)
	}
	if snap.BudgetRaises == 0 || snap.EffectiveMaxSessions == 0 {
		t.Fatalf("controller stats missing from snapshot: %+v", snap.FleetStats)
	}

	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"oicd_fleet_budget{fleet=",
		"oicd_fleet_effective_sessions{fleet=",
		"oicd_fleet_budget_raises_total{fleet=",
		"oicd_fleet_budget_lowers_total{fleet=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestFleetMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: oic.PolicyAlwaysRun, ComputeBudget: 1, Size: 4, Seed: 1,
	}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	if st := c.do("POST", "/v1/fleets/"+fi.ID+"/tick", oic.FleetTickRequest{Ticks: 3}, nil); st != http.StatusOK {
		t.Fatalf("tick: status %d", st)
	}
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"oicd_fleets_active 1",
		"oicd_fleet_ticks_total 3",
		"oicd_fleet_steps_total 12",
		"oicd_fleet_shed_total",
		"oicd_fleet_utilization",
		"oicd_fleet_reclaimed_ratio",
		"oicd_fleet_tick_seconds_sum",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJSONRoutesBodyAnswers sends three bodies to every route that
// decodes a JSON body: one over the limit whose JSON value ends inside
// it answers 413 too_large, as oicd-router answers it; an empty one is
// the zero-value request, answering as "{}" does; and a malformed one
// answers 400 with the decoder's message.
func TestJSONRoutesBodyAnswers(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var si oic.SessionInfo
	if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, Seed: 1}, &si); st != http.StatusCreated {
		t.Fatalf("create session: status %d", st)
	}
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 2, Seed: 1}, &fi); st != http.StatusCreated {
		t.Fatalf("create fleet: status %d", st)
	}
	send := func(path, body string) (int, oic.ErrorResponse) {
		t.Helper()
		resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er oic.ErrorResponse
		if resp.StatusCode >= 400 {
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp.StatusCode, er
	}
	over := `{}` + strings.Repeat(" ", oic.MaxRequestBytes)
	for _, path := range []string{
		"/v1/sessions",
		"/v1/sessions/resume",
		"/v1/sessions/" + si.ID + "/step",
		"/v1/replay",
		"/v1/fleets",
		"/v1/fleets/" + fi.ID + "/tick",
		"/v1/fleets/" + fi.ID + "/sessions",
	} {
		if st, er := send(path, over); st != http.StatusRequestEntityTooLarge || er.Code != "too_large" {
			t.Errorf("POST %s, over the limit: %d %q (%s), want 413 too_large", path, st, er.Code, er.Error)
		}
		stEmpty, erEmpty := send(path, "")
		stZero, erZero := send(path, "{}")
		if stEmpty != stZero || erEmpty.Code != erZero.Code || strings.HasPrefix(erEmpty.Error, "invalid JSON") {
			t.Errorf("POST %s, empty body: %d %q (%s); {} answers %d %q", path, stEmpty, erEmpty.Code, erEmpty.Error, stZero, erZero.Code)
		}
		if st, er := send(path, `{"`); st != http.StatusBadRequest || er.Code != "bad_request" || er.Error != "invalid JSON: unexpected EOF" {
			t.Errorf("POST %s, malformed: %d %q (%s), want 400 bad_request (invalid JSON: unexpected EOF)", path, st, er.Code, er.Error)
		}
	}
}

// TestFleetTickBodyAnswers pins the fleet tick's one-pass body decode to
// decodeJSON, the decoder every other route uses: each malformed body
// answers with its status and message, odd but valid bodies (a
// case-folded key, a duplicate ws, trailing bytes) still tick, and a
// body over the limit answers 413 too_large on both, even when its first
// JSON value ends inside the limit.
func TestFleetTickBodyAnswers(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var fi oic.FleetInfo
	if st := c.do("POST", "/v1/fleets", oic.CreateFleetRequest{Plant: "acc", Size: 2, Seed: 1}, &fi); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	pad := strings.Repeat(" ", oic.MaxRequestBytes)
	cases := []struct {
		name    string
		body    string
		chunked bool // no Content-Length
		status  int  // 0: decodeJSON's answer
	}{
		{name: "empty", body: "", status: http.StatusOK},
		{name: "empty chunked", body: "", chunked: true},
		{name: "malformed ws", body: `{"ws": {"0": [1,]}}`},
		{name: "malformed object", body: `{"ws": {"0": [0.5, 0]}, }`},
		{name: "truncated", body: `{"ws": {"0": [0.5`},
		{name: "not an object", body: `[1]`},
		{name: "ticks fraction", body: `{"ticks": 1.5}`},
		{name: "ticks overflow", body: `{"ticks": 9223372036854775808}`},
		{name: "ws out of range", body: `{"ws": {"0": [1e400, 0]}}`},
		{name: "ws key", body: `{"ws": {"x": [0, 0]}}`},
		{name: "one pass", body: `{"ws": {"0": [0.5, 0], "1": null}, "ticks": 1}`, status: http.StatusOK},
		{name: "case-folded key", body: `{"WS": {"0": [0.5, 0]}}`, status: http.StatusOK},
		{name: "duplicate ws", body: `{"ws": {"0": [0.5, 0]}, "ws": {"1": [0, 0]}}`, status: http.StatusOK},
		{name: "trailing bytes", body: `{"ticks": 1} trailing`, status: http.StatusOK},
		{name: "chunked", body: `{"ws": {"0": [0.5, 0]}}`, chunked: true, status: http.StatusOK},
		{name: "over limit, value inside", body: `{"ticks": 1}` + pad},
		{name: "over limit, value open", body: `{"ws": {"0": [` + pad},
	}
	for _, tc := range cases {
		var rd io.Reader = strings.NewReader(tc.body)
		if tc.chunked {
			rd = io.MultiReader(rd) // hides the length: sent chunked
		}
		req, err := http.NewRequest("POST", c.base+"/v1/fleets/"+fi.ID+"/tick", rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}

		// decodeJSON's answer on the same request.
		ref := httptest.NewRequest("POST", "/", strings.NewReader(tc.body))
		if tc.chunked {
			ref.ContentLength = -1
		}
		var refReq oic.FleetTickRequest
		refErr := decodeJSON(ref, &refReq)
		wantStatus, wantCode, wantMsg := http.StatusOK, "", ""
		if refErr != nil {
			wantStatus, wantCode = statusAndCode(refErr)
			wantMsg = refErr.Error()
		}
		if strings.HasPrefix(tc.name, "over limit") && !errors.Is(refErr, errTooLarge) {
			t.Fatalf("%s: decodeJSON answers %v, want errTooLarge", tc.name, refErr)
		}
		if tc.status != 0 {
			wantStatus = tc.status
		}
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, wantStatus, raw)
			continue
		}
		if wantStatus == http.StatusOK {
			var tr oic.FleetTickResponse
			if err := json.Unmarshal(raw, &tr); err != nil || len(tr.Reports) != 1 {
				t.Errorf("%s: answer %s, want one tick report", tc.name, raw)
			}
			continue
		}
		var er oic.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%s: %v in %s", tc.name, err, raw)
		}
		if er.Code != wantCode || er.Error != wantMsg {
			t.Errorf("%s: answer %q (%s), want %q (%s)", tc.name, er.Error, er.Code, wantMsg, wantCode)
		}
	}
}
