package journal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"oic/internal/fault"
	"oic/internal/trace"
)

func sampleRecords() []*Record {
	meta := trace.Meta{
		Plant: "acc", Scenario: "acc-default", Policy: "drl",
		TrainEpisodes: 24, TrainSteps: 40, TrainSeed: 5,
	}
	return []*Record{
		{Type: TypeOpen, ID: "s-1", Meta: meta, NX: 2, NU: 1, X0: []float64{10, -0.5}},
		{Type: TypeStep, ID: "s-1", NX: 2, NU: 1, Step: trace.Step{Ran: true, Forced: false, Level: 1,
			W: []float64{0.1, -0.2}, U: []float64{0.75}, X: []float64{9.8, -0.4}}},
		{Type: TypeStep, ID: "s-1", NX: 2, NU: 1, Step: trace.Step{Ran: false, Level: 0,
			W: []float64{0, 0.05}, U: []float64{0}, X: []float64{9.7, -0.35}}},
		{Type: TypeFleetOpen, ID: "f-1", Meta: meta, NX: 2, NU: 1,
			Budget: 100, Workers: 4, MaxSessions: 1000},
		{Type: TypeFleetAdmit, ID: "f-1", Member: 0, NX: 2, X0: []float64{12, 0}},
		{Type: TypeFleetAdmit, ID: "f-1", Member: 1, NX: 2, X0: []float64{11, 0.25}},
		{Type: TypeFleetStep, ID: "f-1", Member: 0, NX: 2, NU: 1, Step: trace.Step{Ran: true, Forced: true, Level: 2,
			W: []float64{-0.1, 0}, U: []float64{-1.5}, X: []float64{11.9, 0.1}}},
		{Type: TypeFleetEvict, ID: "f-1", Member: 1},
		{Type: TypeClose, ID: "s-1"},
		{Type: TypeFleetClose, ID: "f-1"},
	}
}

// encodeSegment builds an in-memory segment holding recs.
func encodeSegment(t *testing.T, recs []*Record) []byte {
	t.Helper()
	b := AppendHeader(nil)
	for _, r := range recs {
		var err error
		if b, err = AppendRecord(b, r); err != nil {
			t.Fatalf("AppendRecord(%s): %v", r.Type, err)
		}
	}
	return b
}

// Every record type round-trips through the codec and re-encodes to
// identical bytes (the canonical-form property the fuzzer pins).
func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		enc, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatalf("%s: %v", r.Type, err)
		}
		got, n, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", r.Type, err)
		}
		if n != len(enc) {
			t.Fatalf("%s: consumed %d of %d bytes", r.Type, n, len(enc))
		}
		enc2, err := AppendRecord(nil, got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", r.Type, err)
		}
		if string(enc2) != string(enc) {
			t.Fatalf("%s: re-encoding differs", r.Type)
		}
	}
}

func TestReadSegment(t *testing.T) {
	recs := sampleRecords()
	b := encodeSegment(t, recs)
	got, torn, err := ReadSegment(b)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean segment reported torn")
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Type != recs[i].Type || r.ID != recs[i].ID {
			t.Fatalf("record %d: got %s/%s, want %s/%s", i, r.Type, r.ID, recs[i].Type, recs[i].ID)
		}
	}
}

// The corruption suite: every way a segment can be damaged — flipped
// CRC, truncated record, truncated header, empty file, flipped payload
// byte, oversized length prefix — must truncate at the damage, never
// panic, and report torn.
func TestCorruptionSuite(t *testing.T) {
	recs := sampleRecords()
	clean := encodeSegment(t, recs)

	// Offsets of each record boundary, so cases can address record k.
	bounds := []int{HeaderSize}
	for off := HeaderSize; off < len(clean); {
		n := int(binary.LittleEndian.Uint32(clean[off:])) + frameOverhead
		off += n
		bounds = append(bounds, off)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   int // records surviving
	}{
		{"flipped crc last record", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, len(recs) - 1},
		{"flipped crc mid record", func(b []byte) []byte {
			b[bounds[4]-1] ^= 0xff // corrupt record 3's CRC
			return b
		}, 3},
		{"flipped payload byte", func(b []byte) []byte {
			b[bounds[2]+10] ^= 0x01 // inside record 2's payload
			return b
		}, 2},
		{"truncated record", func(b []byte) []byte {
			return b[:bounds[5]+7] // partial frame of record 5
		}, 5},
		{"truncated mid-length-prefix", func(b []byte) []byte {
			return b[:bounds[1]+2]
		}, 1},
		{"oversized length prefix", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[bounds[3]:], MaxPayload+1)
			return b
		}, 3},
		{"unknown record type", func(b []byte) []byte {
			// Valid frame, valid CRC, unknown type byte.
			bad := append([]byte(nil), b[:bounds[2]]...)
			frame := []byte{3, 0, 0, 0, 0xEE, 'x', 'y', 'z'}
			var crc [4]byte
			binary.LittleEndian.PutUint32(crc[:], crc32ieee(frame))
			return append(bad, append(frame, crc[:]...)...)
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), clean...))
			got, torn, err := ReadSegment(b)
			if err != nil {
				t.Fatalf("ReadSegment errored (must truncate, not fail): %v", err)
			}
			if !torn {
				t.Fatal("damage not reported as torn")
			}
			if len(got) != tc.want {
				t.Fatalf("survived %d records, want %d", len(got), tc.want)
			}
		})
	}

	t.Run("truncated header", func(t *testing.T) {
		if _, _, err := ReadSegment(clean[:5]); err == nil {
			t.Fatal("truncated header accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), clean...)
		b[0] = 'X'
		if _, _, err := ReadSegment(b); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, _, err := ReadSegment(nil); err == nil {
			t.Fatal("empty input accepted")
		}
	})
	t.Run("header only", func(t *testing.T) {
		got, torn, err := ReadSegment(AppendHeader(nil))
		if err != nil || torn || len(got) != 0 {
			t.Fatalf("header-only segment: recs=%d torn=%v err=%v", len(got), torn, err)
		}
	})
}

func crc32ieee(b []byte) uint32 {
	// Tiny local mirror to keep the test self-contained.
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, c := range b {
		crc ^= uint32(c)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// Writer → Recover round trip: records written across a rotation come
// back in order with the right per-session/per-fleet structure.
func TestWriterRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(Options{Dir: dir, SegmentBytes: 256, Policy: SyncEveryStep})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append(%s): %v", r.Type, err)
		}
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Rotations < 2 {
		t.Fatalf("SegmentBytes=256 produced %d segments, want rotation", st.Rotations)
	}
	if st.Syncs < st.Appends {
		t.Fatalf("SyncEveryStep: %d syncs for %d appends", st.Syncs, st.Appends)
	}

	rv, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rv.TornTails != 0 || rv.Orphans != 0 {
		t.Fatalf("clean journal: torn=%d orphans=%d", rv.TornTails, rv.Orphans)
	}
	if len(rv.Sessions) != 1 || len(rv.Fleets) != 1 {
		t.Fatalf("recovered %d sessions, %d fleets", len(rv.Sessions), len(rv.Fleets))
	}
	s := rv.Sessions[0]
	if s.ID != "s-1" || !s.Closed || len(s.Steps) != 2 {
		t.Fatalf("session: id=%s closed=%v steps=%d", s.ID, s.Closed, len(s.Steps))
	}
	f := rv.Fleets[0]
	if f.ID != "f-1" || !f.Closed || len(f.Members) != 2 {
		t.Fatalf("fleet: id=%s closed=%v members=%d", f.ID, f.Closed, len(f.Members))
	}
	if !f.Members[1].Evicted || len(f.Members[0].Steps) != 1 {
		t.Fatal("member eviction/steps not recovered")
	}
	if live, fleets := rv.Live(); live != 0 || fleets != 0 {
		t.Fatalf("Live() = %d, %d after closes", live, fleets)
	}

	// The assembled trace validates and carries the Norm1 energy.
	tr := s.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("assembled trace invalid: %v", err)
	}
	if want := 0.75 + 0.0; math.Abs(tr.Energy-want) > 1e-15 {
		t.Fatalf("energy %v, want %v", tr.Energy, want)
	}
}

// A torn tail on disk (simulating a crash mid-write) is truncated and
// counted; the records before the tear survive.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs[:3] { // open + 2 steps, no close
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	// Tear the last 5 bytes off, as a power cut mid-write would.
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	rv, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rv.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", rv.TornTails)
	}
	if len(rv.Sessions) != 1 || len(rv.Sessions[0].Steps) != 1 {
		t.Fatalf("want the pre-tear prefix (1 step), got %d sessions / %d steps",
			len(rv.Sessions), len(rv.Sessions[0].Steps))
	}
	if rv.Sessions[0].Closed {
		t.Fatal("torn session must recover as live")
	}
}

// A restart continues segment numbering and recovery folds all
// segments; a zero-byte segment (crash between create and header) is
// tolerated and counted.
func TestRecoverAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()

	w1, err := OpenWriter(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Append(recs[0]); err != nil { // open s-1
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWriter(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(recs[1]); err != nil { // step s-1
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated crash between segment create and header write.
	if err := os.WriteFile(filepath.Join(dir, "journal-99999999"+Ext), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %d, want 3 (two writers + empty)", len(segs))
	}
	rv, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Sessions) != 1 || len(rv.Sessions[0].Steps) != 1 {
		t.Fatalf("cross-segment fold failed: %d sessions", len(rv.Sessions))
	}
	if rv.TornTails != 1 {
		t.Fatalf("empty segment not counted as torn (torn=%d)", rv.TornTails)
	}
}

// Recovering a missing directory is an empty recovery, not an error.
func TestRecoverMissingDir(t *testing.T) {
	rv, err := Recover(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Sessions)+len(rv.Fleets)+rv.Segments != 0 {
		t.Fatal("missing dir should recover empty")
	}
}

// An injected append failure is sticky: the journal freezes at the cut
// and every later append returns the injected error.
func TestWriterFaultInjection(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(1)
	inj.FailAfter(fault.SiteJournalAppend, 2)
	w, err := OpenWriter(Options{Dir: dir, Policy: SyncEveryStep, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[2]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append 3: want injected failure, got %v", err)
	}
	if err := w.Append(recs[2]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append 4: sticky error lost: %v", err)
	}
	w.Close()

	rv, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rv.Sessions) != 1 || len(rv.Sessions[0].Steps) != 1 {
		t.Fatalf("journal cut at the injected point: want 1 step, got %d sessions", len(rv.Sessions))
	}
}

// Sync policies: tick-sync only syncs on Sync(); interval syncs on its
// own; none never syncs until close.
func TestSyncPolicies(t *testing.T) {
	rec := sampleRecords()[0]
	t.Run("tick", func(t *testing.T) {
		w, err := OpenWriter(Options{Dir: t.TempDir(), Policy: SyncEveryTick})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.Append(rec)
		if st := w.Stats(); st.Syncs != 0 {
			t.Fatalf("tick policy synced on append (%d)", st.Syncs)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Syncs != 1 {
			t.Fatalf("Sync() did not sync (%d)", st.Syncs)
		}
		// Idempotent when clean.
		w.Sync()
		if st := w.Stats(); st.Syncs != 1 {
			t.Fatalf("clean Sync() synced again (%d)", st.Syncs)
		}
	})
	t.Run("interval", func(t *testing.T) {
		w, err := OpenWriter(Options{Dir: t.TempDir(), Policy: SyncInterval, Interval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.Append(rec)
		deadline := time.Now().Add(2 * time.Second)
		for w.Stats().Syncs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("interval policy never synced")
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("none", func(t *testing.T) {
		w, err := OpenWriter(Options{Dir: t.TempDir(), Policy: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		w.Append(rec)
		if st := w.Stats(); st.Syncs != 0 {
			t.Fatalf("none policy synced (%d)", st.Syncs)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"none": SyncNone, "step": SyncEveryStep, "tick": SyncEveryTick, "interval": SyncInterval,
		" Step ": SyncEveryStep,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus")
	}
}

// Records that reference ids never opened (pruned segments) are counted
// as orphans, not errors.
func TestRecoverOrphans(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := w.Append(recs[1]); err != nil { // step for unopened s-1
		t.Fatal(err)
	}
	if err := w.Append(recs[8]); err != nil { // close for unopened s-1
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rv, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Orphans != 2 || len(rv.Sessions) != 0 {
		t.Fatalf("orphans=%d sessions=%d, want 2/0", rv.Orphans, len(rv.Sessions))
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*Record{
		{Type: TypeOpen, ID: "", NX: 2, NU: 1},
		{Type: TypeOpen, ID: "s", Meta: trace.Meta{Plant: "acc"}, NX: 0, NU: 1},
		{Type: TypeOpen, ID: "s", Meta: trace.Meta{Plant: "acc"}, NX: MaxDim + 1, NU: 1, X0: make([]float64, MaxDim+1)},
		{Type: TypeOpen, ID: "s", Meta: trace.Meta{}, NX: 2, NU: 1, X0: []float64{1, 2}},
		{Type: TypeStep, ID: "s", NX: 2, NU: 1, Step: trace.Step{Level: 4, W: []float64{1, 2}, U: []float64{1}, X: []float64{1, 2}}},
		{Type: TypeStep, ID: "s", NX: 2, NU: 1, Step: trace.Step{W: []float64{1}, U: []float64{1}, X: []float64{1, 2}}},
		{Type: TypeFleetOpen, ID: "f", Meta: trace.Meta{Plant: "acc"}, NX: 2, NU: 1, Budget: -1},
		{Type: TypeFleetAdmit, ID: "f", NX: 2, X0: []float64{1}},
		{Type: Type(99), ID: "x"},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d (%s): invalid record accepted", i, r.Type)
		}
		if _, err := AppendRecord(nil, r); err == nil {
			t.Errorf("case %d (%s): invalid record encoded", i, r.Type)
		}
	}
}

// TestAppendRecordZeroAllocs pins the per-step write-ahead encode at zero
// allocations into a warmed buffer — the path every session and fleet
// member step takes on its way to the journal.
func TestAppendRecordZeroAllocs(t *testing.T) {
	fleetStep := *benchStep()
	fleetStep.Type, fleetStep.ID, fleetStep.Member = TypeFleetStep, "f-1", 7
	for _, r := range []*Record{benchStep(), &fleetStep} {
		buf, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if buf, err = AppendRecord(buf[:0], r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendRecord(%s) allocates %v times per record, want 0", r.Type, allocs)
		}
	}
}
