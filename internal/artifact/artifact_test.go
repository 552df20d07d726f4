package artifact

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"oic/internal/frame"
	"oic/internal/poly"
)

// sample builds a structurally valid artifact exercising every wire
// feature: all three sets, a two-entry skip chain, a snapshot policy,
// and a non-empty reward history.
func sample(withPolicy bool) *Artifact {
	a := &Artifact{
		Version: Version,
		NX:      2, NU: 1,
		Meta: frame.Meta{
			Plant: "acc", Scenario: "vf-30", Policy: "drl",
			Memory: 0, TrainEpisodes: 24, TrainSteps: 40, TrainSeed: -5,
		},
		Sets: Sets{
			X:      poly.Box([]float64{-10, -3}, []float64{10, 3}),
			XI:     poly.Box([]float64{-8, -2.5}, []float64{8, 2.5}),
			XPrime: poly.Box([]float64{-6, -2}, []float64{6, 2}),
		},
		Chain: []*poly.Polytope{
			poly.Box([]float64{-5, -1.5}, []float64{5, 1.5}),
			poly.Box([]float64{-4, -1}, []float64{4, 1}),
		},
		Train: TrainStats{
			Episodes: 24, TotalSteps: 960, MeanReward: 1.25,
			RewardHistory: []float64{0.5, 1.0, 1.5},
			FinalEpsilon:  0.05, FinalLossEMA: 0.003,
		},
	}
	if withPolicy {
		a.Policy = &Policy{
			Label:  "drl-ddqn",
			Memory: 4,
			Sizes:  []int{6, 3, 2},
			Weights: [][]float64{
				{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
				{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
			},
			Biases:  [][]float64{{-1, 0, 1}, {0.25, -0.25}},
			XCenter: []float64{50, 30},
			XScale:  []float64{25, 10},
			WScale:  []float64{2.5},
		}
	} else {
		a.Meta.Policy = "bang-bang"
		a.Meta.TrainEpisodes, a.Meta.TrainSteps, a.Meta.TrainSeed = 0, 0, 0
		a.Train = TrainStats{}
	}
	return a
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, withPolicy := range []bool{true, false} {
		a := sample(withPolicy)
		b, err := Encode(a)
		if err != nil {
			t.Fatalf("encode(policy=%v): %v", withPolicy, err)
		}
		if len(b) != a.EncodedSize() {
			t.Errorf("EncodedSize %d, encoded %d bytes", a.EncodedSize(), len(b))
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode(policy=%v): %v", withPolicy, err)
		}
		// Canonical form: re-encoding the decoded artifact reproduces the
		// input byte-for-byte, so byte equality is a sound identity check.
		b2, err := Encode(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(b) != string(b2) {
			t.Errorf("Encode∘Decode is not the identity (%d vs %d bytes)", len(b), len(b2))
		}
		if got.Meta != a.Meta {
			t.Errorf("meta round-trip: got %+v, want %+v", got.Meta, a.Meta)
		}
		if withPolicy {
			if got.Policy == nil || !reflect.DeepEqual(got.Policy, a.Policy) {
				t.Errorf("policy round-trip: got %+v, want %+v", got.Policy, a.Policy)
			}
		} else if got.Policy != nil {
			t.Errorf("policy round-trip: got %+v, want nil", got.Policy)
		}
		if len(got.Chain) != len(a.Chain) {
			t.Errorf("chain round-trip: %d sets, want %d", len(got.Chain), len(a.Chain))
		}
	}
}

// TestDecodeRejectsCorruption pins the typed errors: a flipped checksum,
// flipped body byte, truncation, foreign magic, and future version each
// fail with the matching sentinel and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	b, err := Encode(sample(true))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		c := append([]byte(nil), b...)
		c[0] = 'X'
		if _, err := Decode(c); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		c := append([]byte(nil), b...)
		c[4] = 0xFF
		c[5] = 0xFF
		if _, err := Decode(c); !errors.Is(err, ErrBadVersion) {
			t.Errorf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("flipped crc", func(t *testing.T) {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 0x01
		if _, err := Decode(c); !errors.Is(err, ErrChecksum) {
			t.Errorf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("flipped body byte", func(t *testing.T) {
		c := append([]byte(nil), b...)
		// A float in the middle of the body: structure still parses, the
		// checksum catches the damage.
		c[len(c)/2] ^= 0x80
		if _, err := Decode(c); err == nil {
			t.Error("decode accepted a corrupted body")
		}
	})
	t.Run("truncation never panics", func(t *testing.T) {
		for n := 0; n < len(b); n++ {
			if _, err := Decode(b[:n]); err == nil {
				t.Fatalf("decode accepted %d-byte prefix of a %d-byte artifact", n, len(b))
			}
		}
	})
	t.Run("short header is ErrTruncated", func(t *testing.T) {
		if _, err := Decode(b[:10]); !errors.Is(err, ErrTruncated) {
			t.Errorf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("trailing bytes rejected", func(t *testing.T) {
		c := append(append([]byte(nil), b...), 0)
		if _, err := Decode(c); err == nil {
			t.Error("decode accepted trailing bytes")
		}
	})
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(a *Artifact)
		want string
	}{
		{"wrong version", func(a *Artifact) { a.Version = 99 }, "version"},
		{"zero dimension", func(a *Artifact) { a.NX = 0 }, "dimensions"},
		{"empty plant", func(a *Artifact) { a.Meta.Plant = "" }, "plant"},
		{"nil set", func(a *Artifact) { a.Sets.XI = nil }, "polytope"},
		{"set dim mismatch", func(a *Artifact) {
			a.Sets.X = poly.Box([]float64{-1, -1, -1}, []float64{1, 1, 1})
		}, "dimension"},
		{"policy output arity", func(a *Artifact) {
			// Shapes consistent, but three outputs instead of skip/run.
			a.Policy.Sizes = []int{6, 3, 3}
			a.Policy.Weights[1] = make([]float64, 9)
			a.Policy.Biases[1] = make([]float64, 3)
		}, "outputs"},
		{"policy shape mismatch", func(a *Artifact) { a.Policy.Weights[0] = a.Policy.Weights[0][:5] }, "shape"},
		{"policy encoder mismatch", func(a *Artifact) { a.Policy.Memory = 2 }, "encoder"},
		{"non-finite stat", func(a *Artifact) { a.Train.MeanReward = nan() }, "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := sample(true)
			tc.mut(a)
			err := a.Validate()
			if err == nil {
				t.Fatal("validate accepted a broken artifact")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if _, err := Encode(a); err == nil {
				t.Error("encode accepted a broken artifact")
			}
		})
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestStore(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "acc|vf-30|drl|m0|e24|s40|seed-5"

	// Miss: no entry, no error.
	if a, err := st.Get(fp); a != nil || err != nil {
		t.Fatalf("empty-store Get = (%v, %v), want (nil, nil)", a, err)
	}

	a := sample(true)
	if err := st.Put(fp, a); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(fp)
	if err != nil || got == nil {
		t.Fatalf("Get after Put = (%v, %v)", got, err)
	}
	if got.Meta != a.Meta {
		t.Errorf("stored meta %+v, want %+v", got.Meta, a.Meta)
	}

	files, err := st.Files()
	if err != nil || len(files) != 1 {
		t.Fatalf("Files = (%v, %v), want one entry", files, err)
	}
	if files[0] != st.Path(fp) {
		t.Errorf("Files[0] = %s, Path = %s", files[0], st.Path(fp))
	}
	if filepath.Ext(files[0]) != Ext {
		t.Errorf("stored file %s lacks the %s extension", files[0], Ext)
	}

	// Corrupt the entry on disk: Get reports the damage, counts it, and
	// removes the file so the next lookup is a clean miss.
	b, err := os.ReadFile(st.Path(fp))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(st.Path(fp), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(fp); err == nil {
		t.Error("Get accepted a corrupted entry")
	}
	if _, err := os.Stat(st.Path(fp)); !os.IsNotExist(err) {
		t.Error("corrupted entry not removed from disk")
	}
	if a, err := st.Get(fp); a != nil || err != nil {
		t.Errorf("Get after corruption cleanup = (%v, %v), want (nil, nil)", a, err)
	}

	stats := st.Stats()
	if stats.Hits != 1 || stats.Misses != 2 || stats.Corrupt != 1 || stats.Writes != 1 {
		t.Errorf("stats %+v, want hits=1 misses=2 corrupt=1 writes=1", stats)
	}

	// Different fingerprints address different files.
	if st.Path(fp) == st.Path(fp+"x") {
		t.Error("distinct fingerprints collide")
	}
}
