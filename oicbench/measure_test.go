package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"oic/internal/cluster"
	"oic/internal/journal"
	"oic/internal/server"
	"oic/pkg/oic"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := percentile(seq(1000), 99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if v, err := percentile(seq(20000), 99); err != nil || v != 19800 {
		t.Fatalf("p99 of 1..20000 = %v, %v; want 19800", v, err)
	}
	if _, err := percentile(seq(19), 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestHistogramDeltaOnDaemonOutput drives a real journaled shard behind a
// real router in-process, the way the traced run does, and checks that the
// parser reads both /metrics expositions and that the deltas of the series
// the traced run uses count exactly the fleet ticks sent between two
// scrapes.
func TestHistogramDeltaOnDaemonOutput(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	if err := srv.OpenJournal(journal.Options{Dir: t.TempDir(), Policy: journal.SyncEveryTick}); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(srv.Handler())
	defer shard.Close()
	rt, err := cluster.New(&cluster.Membership{Nodes: []cluster.Node{{Name: "a", Addr: shard.URL}}}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rt.ProbeOnce(ctx)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	a := newAPI()
	r, s := &daemon{name: "router", url: router.URL}, &daemon{name: "shard", url: shard.URL}

	const members, ticks = 4, 7
	body, _ := json.Marshal(oic.CreateFleetRequest{Plant: "acc", Policy: oic.PolicyBangBang, ComputeBudget: 2, Size: members, Seed: 3})
	b, _, err := a.do(ctx, http.MethodPost, router.URL+"/v1/fleets", body, http.StatusCreated)
	if err != nil {
		t.Fatal(err)
	}
	var info oic.FleetInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	scrapeBoth := func() (promSamples, promSamples) {
		rm, _, err := a.scrape(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		sm, _, err := a.scrape(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		return rm, sm
	}
	r0, s0 := scrapeBoth()
	ws := map[int][]float64{}
	for i := 0; i < members; i++ {
		ws[i] = []float64{0.1, 0}
	}
	tick, _ := json.Marshal(oic.FleetTickRequest{WS: ws})
	for i := 0; i < ticks; i++ {
		if _, _, err := a.do(ctx, http.MethodPost, router.URL+"/v1/fleets/"+info.ID+"/tick", tick, http.StatusOK); err != nil {
			t.Fatal(err)
		}
	}
	r1, s1 := scrapeBoth()

	for _, c := range []struct {
		name  string
		scr   [2]promSamples
		count float64
	}{
		{"oicd_journal_append_seconds", [2]promSamples{s0, s1}, members * ticks},
		{"oicd_journal_sync_seconds", [2]promSamples{s0, s1}, ticks},
		{"oicd_router_proxy_seconds", [2]promSamples{r0, r1}, ticks},
	} {
		h, err := histogramDelta(c.scr[0], c.scr[1], c.name)
		if err != nil {
			t.Fatal(err)
		}
		if h.Count != c.count || h.Sum <= 0 || h.Mean() <= 0 {
			t.Fatalf("%s delta %+v, want %v observations with a positive sum", c.name, h, c.count)
		}
	}
	if _, err := delta(s0, s1, "go_gc_pause_seconds_total"); err != nil {
		t.Fatal(err)
	}
	if _, err := histogramDelta(s0, s1, "oicd_no_such_histogram"); err == nil {
		t.Fatal("a missing series must be an error, not a zero delta")
	}
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Fatal("a malformed exposition line must be an error")
	}
}

func TestProcStatCPU(t *testing.T) {
	// Field 2 holds spaces and parentheses; utime=1234 and stime=66 ticks.
	stat := "4242 (oicd (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (short) S 1 2"); err == nil {
		t.Fatal("a truncated stat line must be an error")
	}
	// The reader works on a live process: this one has burnt some CPU.
	if c, err := cpuTime(os.Getpid()); err != nil || c < 0 {
		t.Fatalf("cpuTime(self) = %v, %v", c, err)
	}
}

func TestSchedstat(t *testing.T) {
	got, err := parseSchedstat("123456789 4242 17\n")
	if err != nil || got != 123456789*time.Nanosecond {
		t.Fatalf("on-CPU = %v, %v; want 123.456789ms", got, err)
	}
	if _, err := parseSchedstat("123456789 4242\n"); err == nil {
		t.Fatal("a schedstat line without three fields must be an error")
	}
	// The reader sums every thread of a live process: burn CPU on another
	// goroutine's thread and see it counted.
	before, err := onCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		}
		close(done)
	}()
	<-done
	after, err := onCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 10*time.Millisecond {
		t.Fatalf("50 ms of spinning added %v of on-CPU time", d)
	}
}

func TestProcStatusHWM(t *testing.T) {
	status := "Name:\toicd\nVmPeak:\t  900000 kB\nVmHWM:\t  483000 kB\nVmRSS:\t  470000 kB\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 483000<<10 {
		t.Fatalf("VmHWM = %v, %v; want %d bytes", got, err, 483000<<10)
	}
	if _, err := parseStatusKB("VmHWM:\t 12 MB\n", "VmHWM"); err == nil {
		t.Fatal("a unit other than kB must be an error")
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("a missing key must be an error")
	}
	if r, err := peakRSS(os.Getpid()); err != nil || r <= 0 {
		t.Fatalf("peakRSS(self) = %v, %v", r, err)
	}
}

func TestHostSteal(t *testing.T) {
	steal, total, err := parseHostSteal("cpu  100 5 50 800 10 1 2 32 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if err != nil || steal != 32 || total != 1000 {
		t.Fatalf("steal, total = %d, %d, %v; want 32, 1000", steal, total, err)
	}
	if _, _, err := parseHostSteal("intr 1 2 3\n"); err == nil {
		t.Fatal("a stat file without the cpu line must be an error")
	}
	if _, total, err := hostSteal(); err != nil || total <= 0 {
		t.Fatalf("hostSteal() total %d, %v", total, err)
	}
}
