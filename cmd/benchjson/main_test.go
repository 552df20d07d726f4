package main

import (
	"strings"
	"testing"
)

// TestParseFoldsRuns checks that repeated result lines of one benchmark
// fold into one entry holding each unit's median and [min, max], that an
// even number of runs takes the mean of the two middle values, that a
// unit missing from some runs is folded over the runs that report it,
// that a single run has no spread, and that the same name in two packages
// stays two entries.
func TestParseFoldsRuns(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: oic/pkg/oic
cpu: Test CPU
BenchmarkFleetTick-2   	      40	  30 ns/op	  2.0 computes/op	 100 B/op
BenchmarkFleetTick-2   	      50	  10 ns/op	  2.5 computes/op	 100 B/op
BenchmarkFleetTick-2   	      60	  20 ns/op	  1.5 computes/op	 100 B/op
BenchmarkFleetTick-2   	      30	  50 ns/op	  3.0 computes/op
BenchmarkFleetTick-2   	      70	  40 ns/op	  1.0 computes/op	 130 B/op
BenchmarkSessionStep-2 	    1000	  7 ns/op
BenchmarkFleetTickElastic-2 	      60	  4 ns/op
BenchmarkFleetTickElastic-2 	      60	  1 ns/op
BenchmarkFleetTickElastic-2 	      60	  3 ns/op
BenchmarkFleetTickElastic-2 	      60	  2 ns/op
PASS
pkg: oic/internal/server
BenchmarkSessionStep-2 	    2000	  9 ns/op
BenchmarkBroken-2 	    x	  9 ns/op
ok  	oic/internal/server	1.0s
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.CPU != "Test CPU" || len(rep.Benchmarks) != 4 {
		t.Fatalf("report %+v", rep)
	}
	ft := rep.Benchmarks[0]
	if ft.Name != "BenchmarkFleetTick" || ft.Runs != 5 || ft.Iterations != 50 {
		t.Fatalf("fleet tick entry %+v", ft)
	}
	want := map[string]float64{"ns/op": 30, "computes/op": 2.0, "B/op": 100}
	for unit, v := range want {
		if ft.Metrics[unit] != v {
			t.Errorf("%s median %v, want %v", unit, ft.Metrics[unit], v)
		}
	}
	if got := ft.Spread["ns/op"]; got != [2]float64{10, 50} {
		t.Errorf("ns/op spread %v, want [10 50]", got)
	}
	if got := ft.Spread["B/op"]; got != [2]float64{100, 130} {
		t.Errorf("B/op spread %v, want [100 130]", got)
	}
	if el := rep.Benchmarks[2]; el.Name != "BenchmarkFleetTickElastic" || el.Runs != 4 || el.Metrics["ns/op"] != 2.5 {
		t.Errorf("even-count entry %+v, want ns/op median 2.5 over 4 runs", el)
	}
	for i, wantNS := range map[int]float64{1: 7, 3: 9} {
		b := rep.Benchmarks[i]
		if b.Name != "BenchmarkSessionStep" || b.Runs != 1 || b.Metrics["ns/op"] != wantNS || b.Spread != nil {
			t.Errorf("session step entry %d: %+v", i, b)
		}
	}
}
