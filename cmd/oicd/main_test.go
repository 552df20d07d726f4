package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"oic/pkg/oic"
)

// TestCrashRecoverySmoke is the end-to-end chaos test: build the real
// oicd binary, serve a journaled workload under deterministic κ-compute
// fault injection, SIGKILL the process mid-tick (no shutdown path runs),
// restart it on the same journal directory, and require the recovered
// session to be byte-identical — same snapshot, same binary trace — with
// the restart's log attesting the replay. The fleet runs degraded:
// injected solver faults shed to certified-safe skips (zero violations)
// and the mid-tick kill leaves a torn or partial tick the replay must
// absorb.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "oicd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building oicd: %v\n%s", err, out)
	}

	journalDir := filepath.Join(tmp, "journal")
	addr := freeAddr(t)
	base := "http://" + addr

	// Phase 1: serve and journal a session + a degraded fleet under
	// injected κ faults, then SIGKILL mid-tick.
	proc1, _ := startOicd(t, bin, addr, journalDir,
		"-fault", "sched.compute=0.1", "-fault-seed", "9")
	waitHealthy(t, base, 30*time.Second)

	var info oic.SessionInfo
	doJSON(t, base, "POST", "/v1/sessions",
		oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, Seed: 3, Trace: true}, &info)
	const steps = 200
	var last oic.StepResult
	for i := 0; i < steps; i++ {
		w := []float64{0.05 * math.Sin(float64(i)), 0.03 * math.Cos(float64(2*i))}
		doJSON(t, base, "POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{W: w}, &last)
	}
	var preInfo oic.SessionInfo
	doJSON(t, base, "GET", "/v1/sessions/"+info.ID, nil, &preInfo)
	preTrace := doRaw(t, base, "/v1/sessions/"+info.ID+"/trace?format=binary")

	// A degraded fleet under 10% κ-compute fault injection: faults on
	// optional computes shed to certified-safe skips instead of evicting.
	const members, syncTicks = 16, 30
	var fleetInfo oic.FleetInfo
	doJSON(t, base, "POST", "/v1/fleets", oic.CreateFleetRequest{
		Plant: "acc", Policy: "always-run", Size: members, Seed: 11, Degrade: true,
	}, &fleetInfo)
	var tickResp oic.FleetTickResponse
	doJSON(t, base, "POST", "/v1/fleets/"+fleetInfo.ID+"/tick",
		oic.FleetTickRequest{Ticks: syncTicks}, &tickResp)
	var preFleet oic.FleetInfo
	doJSON(t, base, "GET", "/v1/fleets/"+fleetInfo.ID, nil, &preFleet)
	if preFleet.Degraded == 0 {
		t.Fatalf("no degraded computes after %d faulted ticks: %+v", syncTicks, preFleet)
	}
	if preFleet.Violations != 0 || preFleet.Evicted != 0 {
		t.Fatalf("degraded mode broke the safety invariant: %+v", preFleet)
	}

	// Hammer ticks from a goroutine so the SIGKILL lands mid-tick; the
	// journal's head is then a partial tick (some member steps durable,
	// some not) the recovery must absorb.
	hammerDone := make(chan struct{})
	go func() {
		defer close(hammerDone)
		for {
			req, _ := json.Marshal(oic.FleetTickRequest{Ticks: 1})
			resp, err := http.Post(base+"/v1/fleets/"+fleetInfo.ID+"/tick",
				"application/json", bytes.NewReader(req))
			if err != nil {
				return // the process died under us — mission accomplished
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(80 * time.Millisecond)
	if err := proc1.Process.Kill(); err != nil { // SIGKILL: no graceful path
		t.Fatal(err)
	}
	_ = proc1.Wait()
	<-hammerDone

	// Phase 2: restart on the same journal; recovery must replay to head.
	proc2, logs2 := startOicd(t, bin, addr, journalDir)
	waitHealthy(t, base, 30*time.Second)

	var postInfo oic.SessionInfo
	doJSON(t, base, "GET", "/v1/sessions/"+info.ID, nil, &postInfo)
	if postInfo.T != preInfo.T || postInfo.Skips != preInfo.Skips ||
		postInfo.Forced != preInfo.Forced || postInfo.Violations != preInfo.Violations {
		t.Fatalf("recovered info %+v != pre-kill %+v", postInfo, preInfo)
	}
	for i := range preInfo.X {
		if math.Float64bits(postInfo.X[i]) != math.Float64bits(preInfo.X[i]) {
			t.Fatalf("recovered x[%d] = %x, want %x", i, postInfo.X[i], preInfo.X[i])
		}
	}
	postTrace := doRaw(t, base, "/v1/sessions/"+info.ID+"/trace?format=binary")
	if !bytes.Equal(postTrace, preTrace) {
		t.Fatalf("recovered binary trace differs: %d bytes vs %d", len(postTrace), len(preTrace))
	}
	// The recovered session keeps serving.
	var next oic.StepResult
	doJSON(t, base, "POST", "/v1/sessions/"+info.ID+"/step", oic.StepRequest{}, &next)
	if next.T != steps {
		t.Fatalf("post-recovery step at t=%d, want %d", next.T, steps)
	}

	// The fleet is back with every member replayed past the synchronous
	// ticks (the hammered tail is whatever the journal's head acknowledged
	// — crash consistency, not a fixed count), still violation-free, and
	// still ticking.
	var postFleet oic.FleetInfo
	doJSON(t, base, "GET", "/v1/fleets/"+fleetInfo.ID, nil, &postFleet)
	if postFleet.Sessions != members || postFleet.Violations != 0 {
		t.Fatalf("recovered fleet %+v, want %d members and 0 violations", postFleet, members)
	}
	for m := 0; m < members; m++ {
		var mi oic.FleetMemberInfo
		doJSON(t, base, "GET", fmt.Sprintf("/v1/fleets/%s/sessions/%d", fleetInfo.ID, m), nil, &mi)
		if mi.T < syncTicks || mi.Violations != 0 {
			t.Fatalf("recovered member %d at t=%d with %d violations, want t≥%d and 0",
				m, mi.T, mi.Violations, syncTicks)
		}
	}
	doJSON(t, base, "POST", "/v1/fleets/"+fleetInfo.ID+"/tick",
		oic.FleetTickRequest{Ticks: 2}, &tickResp)

	_ = proc2.Process.Signal(syscall.SIGTERM)
	_ = proc2.Wait()
	if log := logs2.String(); !strings.Contains(log, "journal recovery done") ||
		!strings.Contains(log, fmt.Sprintf("sessions=1 fleets=1 members=%d", members)) ||
		!strings.Contains(log, "failed=0") {
		t.Fatalf("restart log does not attest the replay:\n%s", log)
	}
}

// startOicd launches the built binary with journaling on and returns the
// process plus its captured stderr log.
func startOicd(t *testing.T, bin, addr, journalDir string, extra ...string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	args := append([]string{"-addr", addr, "-journal-dir", journalDir, "-journal-sync", "step"}, extra...)
	cmd := exec.Command(bin, args...)
	logs := &bytes.Buffer{}
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	return cmd, logs
}

// freeAddr reserves then releases a loopback port for the subprocess.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitHealthy polls /readyz until it reports ready — readiness, not
// liveness, is what gates traffic while recovery or preloading runs.
func waitHealthy(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s not healthy within %v", base, timeout)
}

func doJSON(t *testing.T, base, method, path string, body, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("%s %s: status %d, body %s", method, path, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, raw, err)
		}
	}
}

func doRaw(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, b)
	}
	return b
}
