package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, so that its value rests on ten.
const minTail = 10

// percentile returns the nearest-rank pct-th percentile (pct in 1..99) of
// xs, which it sorts in place. It refuses when fewer than minTail samples
// lie beyond the rank.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	rank := (pct*n + 99) / 100 // ⌈pct·n/100⌉, 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want ≥ %d", pct, n, n-rank, minTail)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// promSamples maps each series of a Prometheus text exposition, written
// exactly as the exposition spells it (`name` or `name{labels}`), to its
// value.
type promSamples map[string]float64

// parseProm reads a Prometheus text exposition. Comment lines are
// skipped; every other line must be `series value`.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after − before for one series; it fails when either
// scrape lacks the series, so a renamed metric cannot read as zero.
func delta(before, after promSamples, series string) (float64, error) {
	b, ok1 := before[series]
	a, ok2 := after[series]
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("metrics: series %s missing from a scrape", series)
	}
	return a - b, nil
}

// histDelta is the change of an unlabeled histogram's _count and _sum
// between two scrapes.
type histDelta struct {
	Count float64
	Sum   float64 // seconds
}

func histogramDelta(before, after promSamples, name string) (histDelta, error) {
	c, err := delta(before, after, name+"_count")
	if err != nil {
		return histDelta{}, err
	}
	s, err := delta(before, after, name+"_sum")
	if err != nil {
		return histDelta{}, err
	}
	return histDelta{Count: c, Sum: s}, nil
}

// Mean returns the mean observation in seconds (0 with no observations).
func (h histDelta) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// clockTick is the kernel's USER_HZ: /proc reports CPU times in these
// units, and it is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime returns a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want ≥ 13", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] { // fields 14 (utime) and 15 (stime)
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// onCPU returns a process's on-CPU time since it started, summed over its
// threads from /proc/<pid>/task/*/schedstat, in nanoseconds. A guest kernel
// with steal-time accounting leaves out the time the hypervisor gave this
// machine's CPUs to other guests. The Go runtime keeps its threads, so the
// live ones hold the whole process's time.
func onCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		d, err := parseSchedstat(string(b))
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// parseSchedstat reads the on-CPU time, the first of the three fields of
// a schedstat file.
func parseSchedstat(stat string) (time.Duration, error) {
	f := strings.Fields(stat)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields in %q, want 3", len(f), stat)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// peakRSS returns a process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// parseStatusKB reads one `Key:  N kB` line of /proc/<pid>/status, in
// bytes.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %s: %w", key, err)
		}
		return v << 10, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// hostSteal returns the machine-wide steal and total CPU time from the
// first line of /proc/stat, in clock ticks. Steal is time the hypervisor
// gave this machine's virtual CPUs to other guests; the benchmark prints
// it beside each run so that a slow run can be told from a slow program.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostSteal(string(b))
}

func parseHostSteal(stat string) (steal, total int64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
