// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON benchmark record on stdout, so CI can publish the
// repository's perf trajectory (BENCH_N.json artifacts) without external
// tooling:
//
//	go test -run '^$' -bench RMPCStep -benchmem -count 5 . | go run ./cmd/benchjson
//
// Every value/unit pair on a benchmark line is captured, so b.ReportMetric
// custom units (e.g. "bb-fuel-saving-%") survive alongside ns/op, B/op,
// and allocs/op. Repeated runs of one benchmark (-count, or several runs
// appended to one input) fold into one entry: metrics holds each unit's
// median over the runs and spread its [min, max].
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result, folded over its runs.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`     // median over runs
	Runs       int                `json:"runs,omitempty"` // result lines folded in
	Metrics    map[string]float64 `json:"metrics"`        // unit → median value (ns/op, B/op, allocs/op, custom)
	// Spread is unit → [min, max] over the runs, when there is more
	// than one.
	Spread map[string][2]float64 `json:"spread,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and folds the result lines of each
// benchmark, keyed by package and name, into one entry, in order of first
// appearance.
func parse(r io.Reader) (Report, error) {
	rep := Report{Benchmarks: []Benchmark{}}
	var runs [][]Benchmark
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			key := rep.Package + "\x00" + b.Name
			i, seen := index[key]
			if !seen {
				i = len(runs)
				index[key] = i
				runs = append(runs, nil)
			}
			runs[i] = append(runs[i], b)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	for _, rs := range runs {
		rep.Benchmarks = append(rep.Benchmarks, fold(rs))
	}
	return rep, nil
}

// fold merges the runs of one benchmark: the median iteration count, and
// each unit's median and [min, max] over the runs that report it.
func fold(runs []Benchmark) Benchmark {
	out := Benchmark{Name: runs[0].Name, Runs: len(runs), Metrics: map[string]float64{}}
	iters := make([]float64, len(runs))
	values := map[string][]float64{}
	for i, r := range runs {
		iters[i] = float64(r.Iterations)
		for unit, v := range r.Metrics {
			values[unit] = append(values[unit], v)
		}
	}
	out.Iterations = int64(median(iters))
	if len(runs) > 1 {
		out.Spread = map[string][2]float64{}
	}
	for unit, vs := range values {
		out.Metrics[unit] = median(vs) // sorts vs
		if out.Spread != nil {
			out.Spread[unit] = [2]float64{vs[0], vs[len(vs)-1]}
		}
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count). It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine parses "BenchmarkName-8  1234  567 ns/op  8 B/op ..." into
// a Benchmark. Value/unit pairs follow the iteration count.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
