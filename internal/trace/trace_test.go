package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// sample builds a small hand-rolled valid trace.
func sample() *Trace {
	return &Trace{
		Version: Version,
		Meta: Meta{
			Plant: "acc", Scenario: "Fig.4", Policy: "bang-bang",
			Memory: 2, TrainEpisodes: 10, TrainSteps: 20, TrainSeed: -3,
		},
		NX: 2, NU: 1,
		X0: []float64{130.5, 45.25},
		Steps: []Step{
			{Ran: false, Forced: false, Level: 0, W: []float64{0.5, 0}, U: []float64{0}, X: []float64{129.5, 44.0}},
			{Ran: true, Forced: true, Level: 1, W: []float64{-0.5, 0.25}, U: []float64{1.5}, X: []float64{128.0, 43.5}},
			{Ran: true, Forced: false, Level: 0, W: []float64{0, 0}, U: []float64{-0.25}, X: []float64{127.75, 43.25}},
		},
		Energy: 1.75,
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	tr := sample()
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != tr.EncodedSize() {
		t.Errorf("encoded %d bytes, EncodedSize says %d", len(b), tr.EncodedSize())
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", tr, got)
	}
	// Canonical form: re-encoding the decoded trace reproduces the bytes.
	b2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("encoding is not canonical")
	}
}

func TestDecodeRejections(t *testing.T) {
	tr := sample()
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"bad magic": func() []byte { c := bytes.Clone(b); c[0] = 'X'; return c },
		"bad version": func() []byte {
			c := bytes.Clone(b)
			c[4] = 99
			return c
		},
		"truncated":     func() []byte { return b[:len(b)-5] },
		"trailing byte": func() []byte { return append(bytes.Clone(b), 0) },
		"flipped payload bit (crc)": func() []byte {
			c := bytes.Clone(b)
			c[len(c)-12] ^= 1
			return c
		},
		"huge step count": func() []byte {
			c := bytes.Clone(b)
			// Step count sits right after the three strings; corrupt it to
			// a huge value — the length consistency check must fire before
			// any allocation.
			off := 4 + 2 + 2 + 2 + 2 + 4 + 4 + 8 +
				2 + len(tr.Meta.Plant) + 2 + len(tr.Meta.Scenario) + 2 + len(tr.Meta.Policy)
			c[off] = 0xff
			c[off+1] = 0xff
			c[off+2] = 0x0f
			return c
		},
	}
	for name, mk := range cases {
		if _, err := Decode(mk()); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mods := map[string]func(*Trace){
		"version":      func(t *Trace) { t.Version = 2 },
		"empty plant":  func(t *Trace) { t.Meta.Plant = "" },
		"bad nx":       func(t *Trace) { t.NX = 0 },
		"huge nu":      func(t *Trace) { t.NU = MaxDim + 1 },
		"x0 dim":       func(t *Trace) { t.X0 = t.X0[:1] },
		"step w dim":   func(t *Trace) { t.Steps[1].W = t.Steps[1].W[:1] },
		"step u dim":   func(t *Trace) { t.Steps[0].U = append(t.Steps[0].U, 0) },
		"level range":  func(t *Trace) { t.Steps[2].Level = 7 },
		"nan energy":   func(t *Trace) { t.Energy = math.NaN() },
		"neg memory":   func(t *Trace) { t.Meta.Memory = -1 },
		"neg training": func(t *Trace) { t.Meta.TrainEpisodes = -1 },
	}
	for name, mod := range mods {
		tr := sample()
		mod(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", name)
		}
		if _, err := Encode(tr); err == nil {
			t.Errorf("%s: Encode accepted invalid trace", name)
		}
	}
}

func TestRecorder(t *testing.T) {
	tr := sample()
	rec := NewRecorder(tr.Meta, tr.X0, tr.NU, 0)
	for _, st := range tr.Steps {
		if err := rec.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	got := rec.Trace()
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("recorded trace mismatch:\nwant %+v\n got %+v", tr, got)
	}
	// The recorder stays usable after materializing, and earlier
	// materializations are unaffected by later appends.
	if err := rec.Append(Step{Ran: true, W: []float64{1, 1}, U: []float64{2}, X: []float64{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || rec.Len() != 4 {
		t.Errorf("materialized trace grew with the recorder: %d/%d", got.Len(), rec.Len())
	}
	if rec.Trace().Energy != tr.Energy+2 {
		t.Errorf("energy accumulation: %v", rec.Trace().Energy)
	}

	// Dimension guard.
	if err := rec.Append(Step{Ran: true, W: []float64{1}, U: []float64{2}, X: []float64{3, 3}}); err == nil {
		t.Error("Append accepted wrong-length w")
	}

	// Limit.
	lim := NewRecorder(tr.Meta, tr.X0, tr.NU, 2)
	for i := 0; i < 2; i++ {
		if err := lim.Append(Step{W: []float64{0, 0}, U: []float64{0}, X: []float64{0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if !lim.Full() {
		t.Error("recorder not full at limit")
	}
	if err := lim.Append(Step{W: []float64{0, 0}, U: []float64{0}, X: []float64{0, 0}}); err == nil {
		t.Error("Append accepted step beyond limit")
	}
	if lim.Len() != 2 {
		t.Errorf("limited recorder has %d steps, want 2", lim.Len())
	}
}

func TestCompare(t *testing.T) {
	a := sample()
	if d := Compare(a, a.Clone()); !d.Identical || d.DecisionFlips != 0 ||
		d.MaxStateDivergence != 0 || d.FirstFlip != -1 || d.DivergeStep != -1 {
		t.Fatalf("self-compare not identical: %+v", d)
	}

	b := a.Clone()
	b.Steps[1].Ran = false
	b.Steps[1].Forced = false
	b.Steps[2].X[0] += 0.5
	b.Energy -= 1.5
	d := Compare(a, b)
	if d.Identical {
		t.Error("diff reported identical")
	}
	if d.DecisionFlips != 1 || d.FirstFlip != 1 {
		t.Errorf("flips %d first %d, want 1 at 1", d.DecisionFlips, d.FirstFlip)
	}
	if d.DivergeStep != 2 || d.MaxStateDivergence != 0.5 {
		t.Errorf("divergence %v at %d, want 0.5 at 2", d.MaxStateDivergence, d.DivergeStep)
	}
	if d.ComputesA != 2 || d.ComputesB != 1 || d.ForcedA != 1 || d.ForcedB != 0 {
		t.Errorf("compute counts %+v", d)
	}

	// Length mismatch.
	c := a.Clone()
	c.Steps = c.Steps[:2]
	if d := Compare(a, c); !d.LengthMismatch || d.Identical || d.Steps != 2 {
		t.Errorf("length mismatch diff %+v", d)
	}
}

// TestRecorderAppendZeroAllocs pins the recording hook at zero
// allocations per step after warm-up: the arenas grow geometrically, so
// no step pays an allocation of its own.
func TestRecorderAppendZeroAllocs(t *testing.T) {
	x := []float64{130, 45}
	st := Step{Ran: true, Level: 1, W: []float64{0.5, 0.1}, U: []float64{1.25}, X: x}
	rec := NewRecorder(Meta{Plant: "acc"}, x, 1, 0)
	for i := 0; i < 1024; i++ {
		if err := rec.Append(st); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := rec.Append(st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Recorder.Append allocates %v times per step, want 0", allocs)
	}
}
