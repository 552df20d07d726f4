package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeTrace fuzzes the binary decoder — the one parser in the
// system that consumes attacker-controlled bytes (uploaded replay
// requests). Properties:
//
//   - Decode never panics and never allocates unboundedly (the header
//     length check bounds allocation by the input size);
//   - every accepted input is a valid trace (Validate passes);
//   - the format is canonical: re-encoding an accepted input reproduces
//     the exact bytes, so Encode∘Decode = id on the accepted language.
//
// The seed corpus is the committed golden traces plus hand-rolled edge
// cases.
func FuzzDecodeTrace(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.oict"))
	if err != nil {
		f.Fatal(err)
	}
	if len(golden) == 0 {
		f.Log("no golden traces found; fuzzing from synthetic seeds only")
	}
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	if b, err := Encode(sample()); err == nil {
		f.Add(b)
	}
	empty := sample()
	empty.Steps = nil
	empty.Energy = 0
	if b, err := Encode(empty); err == nil {
		f.Add(b)
	}
	f.Add([]byte(magic))
	f.Add([]byte("OICT\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		if verr := tr.Validate(); verr != nil {
			t.Fatalf("Decode accepted a trace Validate rejects: %v", verr)
		}
		out, err := Encode(tr)
		if err != nil {
			t.Fatalf("Encode failed on a decoded trace: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("encoding not canonical: %d in, %d out", len(data), len(out))
		}
		// The diff and audit surfaces must tolerate any accepted trace.
		d := Compare(tr, tr)
		if !d.Identical {
			t.Fatalf("self-compare of accepted trace not identical: %+v", d)
		}
		_ = tr.States()
	})
}
