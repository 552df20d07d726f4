package journal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"oic/internal/fault"
	"oic/internal/obs"
)

// SyncPolicy selects when the writer fsyncs the active segment — the
// durability/throughput dial (DESIGN.md §10 quantifies the trade).
type SyncPolicy int

const (
	// SyncNone never fsyncs explicitly (the OS flushes on its schedule);
	// a crash can lose everything since the last rotation. Benchmarks and
	// tests only.
	SyncNone SyncPolicy = iota
	// SyncEveryStep fsyncs after every append: no acknowledged step is
	// ever lost, at the cost of one fsync per step.
	SyncEveryStep
	// SyncEveryTick fsyncs when the owner calls Sync() — the fleet path
	// calls it once per scheduler tick, amortizing one fsync over every
	// member's step. A crash loses at most the current tick.
	SyncEveryTick
	// SyncInterval fsyncs from a background timer every Interval; a
	// crash loses at most one interval's worth of steps.
	SyncInterval
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncEveryStep:
		return "step"
	case SyncEveryTick:
		return "tick"
	case SyncInterval:
		return "interval"
	}
	return fmt.Sprintf("policy-%d", int(p))
}

// ParsePolicy parses the -journal-sync flag values.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return SyncNone, nil
	case "step":
		return SyncEveryStep, nil
	case "tick":
		return SyncEveryTick, nil
	case "interval":
		return SyncInterval, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want none, step, tick, or interval)", s)
}

// Ext is the segment file extension.
const Ext = ".oicj"

const (
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero: large enough that rotation cost is noise, small
	// enough that recovery reads segments, not one unbounded file.
	DefaultSegmentBytes = 4 << 20
	// DefaultInterval is the SyncInterval period when unset.
	DefaultInterval = 100 * time.Millisecond
)

// Options configures a Writer.
type Options struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// SegmentBytes rotates the segment when it would grow past this.
	SegmentBytes int
	// Policy is the fsync policy.
	Policy SyncPolicy
	// Interval is the SyncInterval period.
	Interval time.Duration
	// Faults optionally injects failures at the journal.append and
	// journal.sync sites; nil means no injection.
	Faults *fault.Injector
	// AppendHist and SyncHist, when set, receive per-append and per-fsync
	// latencies (seconds). Both are nil-safe no-ops when unset.
	AppendHist *obs.Histogram
	SyncHist   *obs.Histogram
}

// WriterStats is a snapshot of a writer's accounting.
type WriterStats struct {
	Appends   int64 // records appended
	Syncs     int64 // fsyncs issued
	Rotations int64 // segments opened
	Bytes     int64 // bytes written across all segments
}

// Writer appends records to rotating segment files. It is safe for
// concurrent use. Failures are sticky: once an append, sync, or rotate
// fails, every later call returns the first error — a half-written
// journal must not keep accepting acknowledged steps.
type Writer struct {
	opts Options

	mu    sync.Mutex
	f     *os.File
	bw    *bufio.Writer
	size  int   // bytes in the active segment
	seq   int   // next segment sequence number
	dirty bool  // unsynced bytes outstanding
	err   error // sticky failure
	stats WriterStats

	stop chan struct{} // interval ticker shutdown
	done chan struct{}
}

// OpenWriter creates (if needed) and scans dir, then returns a writer
// whose next segment continues the existing numbering. It never appends
// to an existing segment — a restart always starts a fresh segment, so
// a prior torn tail stays where recovery truncated it.
func OpenWriter(opts Options) (*Writer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("journal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := Segments(opts.Dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{opts: opts, seq: len(segs)}
	if len(segs) > 0 {
		// Numbering continues after the highest existing index even if
		// earlier segments were pruned.
		var last int
		fmt.Sscanf(filepath.Base(segs[len(segs)-1]), segmentPattern, &last)
		w.seq = last + 1
	}
	if opts.Policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop(w.stop, w.done)
	}
	return w, nil
}

const segmentPattern = "journal-%08d" + Ext

// Segments lists dir's segment files in write order.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "journal-") && strings.HasSuffix(e.Name(), Ext) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// syncLoop receives its channels as arguments so it never reads the
// struct fields Close mutates under the writer lock.
func (w *Writer) syncLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.Sync()
		case <-stop:
			return
		}
	}
}

// rotateLocked closes the active segment (flushing and syncing it) and
// opens the next one with a fresh header.
func (w *Writer) rotateLocked() error {
	if w.f != nil {
		if err := w.flushLocked(true); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		w.f = nil
	}
	path := filepath.Join(w.opts.Dir, fmt.Sprintf(segmentPattern, w.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.seq++
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 1<<16)
	} else {
		w.bw.Reset(f)
	}
	var hdr [HeaderSize]byte
	if _, err := w.bw.Write(AppendHeader(hdr[:0])); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.size = HeaderSize
	w.stats.Rotations++
	w.stats.Bytes += HeaderSize
	w.dirty = true
	return nil
}

// flushLocked drains the buffer and, if sync is set, fsyncs the file.
func (w *Writer) flushLocked(sync bool) error {
	if w.f == nil {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if !sync || !w.dirty {
		return nil
	}
	if err := w.opts.Faults.Hit(fault.SiteJournalSync); err != nil {
		return err
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.opts.SyncHist.Observe(time.Since(start).Seconds())
	w.dirty = false
	w.stats.Syncs++
	return nil
}

// encodeBufs recycles Append's encode buffers, so an append allocates
// nothing once the pool is warm.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Append validates, frames, and writes one record, then applies the
// sync policy. The error, once non-nil, repeats on every later call.
//
// The record is encoded before the writer's lock is taken, so concurrent
// appenders encode in parallel; the lock covers only the sticky error,
// the journal.append fault site, rotation, the buffered write and the
// counters. AppendHist times the whole call, lock wait included.
func (w *Writer) Append(r *Record) error {
	start := time.Now()
	bp := encodeBufs.Get().(*[]byte)
	buf, encErr := AppendRecord((*bp)[:0], r)
	if encErr == nil {
		*bp = buf
	}
	err := w.write(buf, encErr)
	encodeBufs.Put(bp)
	if err != nil {
		return err
	}
	w.opts.AppendHist.Observe(time.Since(start).Seconds())
	return nil
}

// write is Append's locked half: buf is the framed record, or encErr why
// the encode failed. encErr fails the writer like any append failure,
// after the sticky error and the fault site are checked.
func (w *Writer) write(buf []byte, encErr error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.writeLocked(buf, encErr); err != nil {
		w.err = err
		return err
	}
	return nil
}

func (w *Writer) writeLocked(buf []byte, encErr error) error {
	if err := w.opts.Faults.Hit(fault.SiteJournalAppend); err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	if w.f == nil || w.size+len(buf) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.bw.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.size += len(buf)
	w.stats.Appends++
	w.stats.Bytes += int64(len(buf))
	w.dirty = true
	if w.opts.Policy == SyncEveryStep {
		return w.flushLocked(true)
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment. The
// fleet tick path calls it once per tick under SyncEveryTick; it is a
// no-op when nothing is outstanding.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.flushLocked(true); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Stats snapshots the writer's accounting.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Err returns the sticky failure, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the interval ticker, flushes, fsyncs, and closes the
// active segment. Safe to call more than once.
func (w *Writer) Close() error {
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	err := w.flushLocked(true)
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	w.f = nil
	if w.err == nil {
		w.err = err
	}
	return err
}
