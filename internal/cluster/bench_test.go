package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"oic/internal/server"
	"oic/pkg/oic"
)

// benchSession creates a routed session and returns its step URL plus
// the client to drive it. The router sits behind a real HTTP listener so
// both network hops (client→router, router→node) are on the wire.
func benchSession(b *testing.B, batch int) (string, *http.Client, [][]float64) {
	rt, _ := testCluster(b, 1, server.Config{}, Config{})
	rts := httptest.NewServer(rt.Handler())
	b.Cleanup(rts.Close)

	eng, err := oic.NewEngine(oic.Config{Plant: "acc", Policy: oic.PolicyAlwaysRun})
	if err != nil {
		b.Fatal(err)
	}
	x0, ws, err := eng.DrawCase(1, batch)
	if err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyAlwaysRun, X0: x0})
	resp, err := http.Post(rts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var info oic.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("create: %d", resp.StatusCode)
	}
	return rts.URL + "/v1/sessions/" + info.ID + "/step", rts.Client(), ws
}

// BenchmarkRouterStep measures the per-step cost of stepping through the
// router in the batched client mode (64 disturbances per request, the
// same amortization the fleet tick and sync=tick journaling lean on):
// router HTTP handling, ownership lookup, node round trip, and shadow
// append for every step. ns/op is per step. CI gates this against
// internal/server's direct single-step BenchmarkServerStep at ≤ 1.25× —
// batching amortizes the proxy's extra network hop below that budget;
// the unamortized hop is BenchmarkRouterStepSingle below.
func BenchmarkRouterStep(b *testing.B) {
	const batch = 64
	url, client, ws := benchSession(b, batch)
	body, _ := json.Marshal(oic.StepRequest{WS: ws})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkRouterStepSingle is the worst case: one step per request, so
// the proxy's second HTTP round trip is paid in full on every step.
// Kept visible (not gated) so the hop cost stays measured.
func BenchmarkRouterStepSingle(b *testing.B) {
	url, client, ws := benchSession(b, 1)
	step, _ := json.Marshal(oic.StepRequest{W: ws[0]})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(step))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkRouterLookup measures what a session GET costs through a
// router whose table holds the session (hit) and through a fresh router
// that must learn it (miss): ask every shard at once, then pull the
// owner's binary trace to rebuild the placement key and shadow. Three
// shards hold 64 sessions of `steps` recorded steps each; ns/op is per
// GET, and a miss op restarts the router every 64 GETs so every GET of
// the miss case learns.
func BenchmarkRouterLookup(b *testing.B) {
	for _, steps := range []int{100, 1000} {
		rt, _ := testCluster(b, 3, server.Config{}, Config{})
		c := &rc{t: b, h: rt.Handler()}
		ws := make([][]float64, steps)
		for i := range ws {
			ws[i] = []float64{0, 0}
		}
		ids := make([]string, 64)
		for i := range ids {
			var info oic.SessionInfo
			if st := c.do("POST", "/v1/sessions", oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, Seed: int64(i)}, &info); st != http.StatusCreated {
				b.Fatalf("create: status %d", st)
			}
			if st := c.do("POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{WS: ws}, nil); st != http.StatusOK {
				b.Fatalf("step: status %d", st)
			}
			ids[i] = info.ID
		}
		mem := &Membership{}
		for _, n := range rt.nodes {
			mem.Nodes = append(mem.Nodes, n.Node)
		}
		get := func(b *testing.B, h http.Handler, id string) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
			if w.Code != http.StatusOK {
				b.Fatalf("GET %s: status %d", id, w.Code)
			}
		}
		b.Run(fmt.Sprintf("hit/steps=%d", steps), func(b *testing.B) {
			h := rt.Handler()
			for i := 0; i < b.N; i++ {
				get(b, h, ids[i%len(ids)])
			}
		})
		b.Run(fmt.Sprintf("miss/steps=%d", steps), func(b *testing.B) {
			var h http.Handler
			for i := 0; i < b.N; i++ {
				if i%len(ids) == 0 {
					b.StopTimer()
					fresh, err := New(mem, Config{})
					if err != nil {
						b.Fatal(err)
					}
					fresh.ProbeOnce(b.Context())
					h = fresh.Handler()
					b.StartTimer()
				}
				get(b, h, ids[i%len(ids)])
			}
		})
	}
}
