package oic

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// tickWSSeeds are the decoder's contract cases: every row of the table in
// the TickWS doc comment, plus whole request bodies.
var tickWSSeeds = []string{
	`null`,
	` null `,
	`{}`,
	` { } `,
	`[]`,
	`[[0.5,0],[-0.5,0]]`,
	`"1"`,
	`1`,
	`true`,
	`{"1": [0.5, 0]}`,
	`{"+1": [1, 2], "01": [3, 4]}`,
	`{"01": [3, 4], "+1": [1, 2]}`,
	`{"1": null}`,
	`{"1": []}`,
	`{"1": [1, null]}`,
	`{"1": ["1"]}`,
	`{"1": [true]}`,
	`{"1": [[1]]}`,
	`{"1": [{}]}`,
	`{"1": [1e400]}`,
	`{"1": [-1e400]}`,
	`{"1": [1e-400, -0, 5e-324, 1.7976931348623157e308]}`,
	`{"1": "1"}`,
	`{"1": 1}`,
	`{"1": {}}`,
	`{"x": [1]}`,
	`{"": [1]}`,
	`{"1.0": [1]}`,
	`{"1e1": [1]}`,
	`{"9223372036854775807": [1], "-9223372036854775808": [2]}`,
	`{"9223372036854775808": [1]}`,
	`{"1": [1], "12": [2], "\/3": [3], "١": [4]}`,
	`{"1\n": [1]}`,
	`{"ws": [[0.5, 0]]}`,
	`{"ws": [[0.5, 0], [-0.5, 0]]}`,
	`{"ticks": 1, "ws": {"1": [0.5, 0], "2": null}}`,
	`{"WS": {"1": [1]}, "Ticks": 2, "unknown": [true]}`,
	`{"ws": null, "ticks": 3}`,
	" \t\n\r{ \t\n\r\"1\" \t\n\r: \t\n\r[ \t\n\r1 \t\n\r, \t\n\rnull \t\n\r] \t\n\r, \"2\" : null } \t\n\r",
	`{"1": [01]}`,
	`{"1": [1.]}`,
	`{"1": [.5]}`,
	`{"1": [+1]}`,
	`{"1": [1,]}`,
	`{"1": [1] ,}`,
	`{"1": [1]} x`,
	`{"1": [1]`,
	`{"1" [1]}`,
	`{1: [1]}`,
	`{"1": [NaN]}`,
	`{"1": [Infinity]}`,
	`{"1": [0x10]}`,
	`{"1": [1_0]}`,
	`{"1": nul}`,
	"{\"1\x01\": [1]}",
	`{"\x": [1]}`,
	`{"\u12": [1]}`,
	"{\"\xff\": [1]}",
	``,
	`   `,
}

// checkTickWS decodes data as a ws value through TickWS (by
// json.Unmarshal and by a direct UnmarshalJSON call) and through
// encoding/json into a map[int][]float64, and as a whole tick body through
// FleetTickRequest and a mirror of it: each pair must both accept or both
// reject, and on accept agree on keys, nil-vs-empty entries and value bits.
func checkTickWS(t *testing.T, data []byte) {
	t.Helper()
	var got TickWS
	var want map[int][]float64
	errGot := json.Unmarshal(data, &got)
	errWant := json.Unmarshal(data, &want)
	compareTickWS(t, "ws", data, got, want, errGot, errWant)

	// Called directly, the decoder sees bytes encoding/json never
	// validated: it must reject invalid JSON and agree on valid JSON.
	var direct TickWS
	errDirect := direct.UnmarshalJSON(data)
	if !json.Valid(data) {
		if errDirect == nil {
			t.Fatalf("direct %q: TickWS accepted invalid JSON as %#v", data, direct)
		}
	} else {
		compareTickWS(t, "direct", data, direct, want, errDirect, errWant)
	}

	var req FleetTickRequest
	var mirror struct {
		Ticks int               `json:"ticks,omitempty"`
		WS    map[int][]float64 `json:"ws,omitempty"`
	}
	errGot = json.Unmarshal(data, &req)
	errWant = json.Unmarshal(data, &mirror)
	compareTickWS(t, "body", data, req.WS, mirror.WS, errGot, errWant)
	if errGot == nil && req.Ticks != mirror.Ticks {
		t.Fatalf("body %q: ticks %d, encoding/json %d", data, req.Ticks, mirror.Ticks)
	}
}

func compareTickWS(t *testing.T, what string, data []byte, got TickWS, want map[int][]float64, errGot, errWant error) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s %q: TickWS error %v, encoding/json error %v", what, data, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s %q: TickWS %#v, encoding/json %#v", what, data, got, want)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || (g == nil) != (w == nil) || len(g) != len(w) {
			t.Fatalf("%s %q: member %d: TickWS %#v (present %v), encoding/json %#v", what, data, id, g, ok, w)
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s %q: member %d w[%d]: TickWS %v, encoding/json %v", what, data, id, j, g[j], w[j])
			}
		}
	}
}

func TestTickWSMatchesEncodingJSON(t *testing.T) {
	for _, s := range tickWSSeeds {
		checkTickWS(t, []byte(s))
	}
}

// TestTickWSContract pins the decoded shapes the fleet relies on: a null
// entry is the zero disturbance (nil), an empty array is a non-nil entry
// Tick rejects, and a null element is 0.
func TestTickWSContract(t *testing.T) {
	var ws TickWS
	if err := json.Unmarshal([]byte(`{"1": null, "2": [], "+3": [1, null], "03": [4, 5]}`), &ws); err != nil {
		t.Fatal(err)
	}
	if w, ok := ws[1]; !ok || w != nil {
		t.Errorf(`{"1": null} decoded to %#v (present %v), want a nil entry`, w, ok)
	}
	if w := ws[2]; w == nil || len(w) != 0 {
		t.Errorf(`{"2": []} decoded to %#v, want a non-nil empty entry`, w)
	}
	if w := ws[3]; len(w) != 2 || w[0] != 4 || w[1] != 5 || cap(w) != 2 {
		t.Errorf(`"+3" then "03" decoded to %#v (cap %d), want the last one, [4 5], capped`, w, cap(w))
	}
	if err := json.Unmarshal([]byte(`null`), &ws); err != nil || ws != nil {
		t.Errorf("null decoded to %#v, %v; want a nil map", ws, err)
	}
	if err := json.Unmarshal([]byte(`{"1": []}`), &ws); err != nil || ws[1] == nil {
		t.Errorf(`{"1": []} alone decoded to %#v, %v; want a non-nil empty entry`, ws, err)
	}
}

// FuzzTickWS is the differential fuzzer of the ws decoder against
// encoding/json.
func FuzzTickWS(f *testing.F) {
	for _, s := range tickWSSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTickWS(t, data)
	})
}

// tickBodySeeds are whole tick bodies for FuzzFleetTickRequest, beyond
// tickWSSeeds wrapped in {"ws":…}: ticks values and null, keys the one-pass
// decoder leaves to encoding/json (unknown, case-folded, escaped,
// duplicate), trailing bytes and leading whitespace.
var tickBodySeeds = []string{
	`{}`,
	` {} `,
	`{"ticks": 1}`,
	`{"ticks": 0}`,
	`{"ticks": -0}`,
	`{"ticks": -3}`,
	`{"ticks": 9223372036854775807}`,
	`{"ticks": 9223372036854775808}`,
	`{"ticks": -9223372036854775808}`,
	`{"ticks": 01}`,
	`{"ticks": 1.0}`,
	`{"ticks": 1e2}`,
	`{"ticks": -}`,
	`{"ticks": "1"}`,
	`{"ticks": null}`,
	`{"ticks": 2, "ws": null}`,
	`{"ws": {"1": [0.5, 0]}, "ticks": 1}`,
	`{"ws": null}`,
	`{"ws": {}}`,
	`{"ws": {"1": [0.5, 0]}, "unknown": 1}`,
	`{"unknown": [true], "ticks": 1}`,
	`{"WS": {"1": [1]}}`,
	`{"Ticks": 2}`,
	`{"\u0077s": {"1": [1]}}`,
	`{"ws": {"1": [1]}, "ws": {"2": [2]}}`,
	`{"ws": {"1": [1]}, "ws": {"1": [2]}}`,
	`{"ticks": 1, "ticks": 2}`,
	`{"ws": {"1": [1]}} x`,
	`{"ws": {"1": [1]}}}`,
	`{"ticks": 1}{"ticks": 2}`,
	" \t\n\r{\"ws\" \t\n\r: \t\n\r{\"1\":[1]} \t\n\r, \t\n\r\"ticks\"\t:\t1\n} \t\n\r",
	`{"ws": {"1": [1]},}`,
	`{"ws" {"1": [1]}}`,
	`{"ws": {"1": [1]}`,
	`{"ws": {"1": [1],}}`,
	`{"ws"::{}}`,
	`{,"ticks": 1}`,
	`{"ws": nul}`,
	`{"ticks": nul}`,
	`null`,
	`[]`,
	``,
}

// checkTickBody decodes data as a whole tick body with
// DecodeFleetTickRequest and with encoding/json's Decoder: both must
// answer alike (the same error text, or the same request). On every body
// the one-pass decoder takes, the Decoder must accept it too and agree on
// ticks, the ws keys, nil-vs-empty entries and every float bit.
func checkTickBody(t *testing.T, data []byte) {
	t.Helper()
	var want FleetTickRequest
	errWant := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if got, ok := decodeTickOnePass(data); ok {
		if errWant != nil {
			t.Fatalf("one pass %q: took %+v; encoding/json rejects it: %v", data, got, errWant)
		}
		compareTickWS(t, "one pass", data, got.WS, want.WS, nil, nil)
		if got.Ticks != want.Ticks {
			t.Fatalf("one pass %q: ticks %d, encoding/json %d", data, got.Ticks, want.Ticks)
		}
	}
	got, errGot := DecodeFleetTickRequest(data)
	if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
		t.Fatalf("body %q: DecodeFleetTickRequest error %v, encoding/json %v", data, errGot, errWant)
	}
	if errGot == nil {
		compareTickWS(t, "body", data, got.WS, want.WS, nil, nil)
		if got.Ticks != want.Ticks {
			t.Fatalf("body %q: ticks %d, encoding/json %d", data, got.Ticks, want.Ticks)
		}
	}
}

func TestFleetTickRequestMatchesEncodingJSON(t *testing.T) {
	for _, s := range tickWSSeeds {
		checkTickBody(t, []byte(`{"ws":`+s+`}`))
	}
	for _, s := range tickBodySeeds {
		checkTickBody(t, []byte(s))
	}
}

// TestTickOnePassTakesClientBodies pins that the bodies clients send take
// the one pass: a fallback here would cost the second scan it removes.
func TestTickOnePassTakesClientBodies(t *testing.T) {
	ws := TickWS{}
	for id := 0; id < 50; id++ {
		ws[id] = []float64{float64(id) / 3, -1e-300}
	}
	ws[50] = nil
	for _, req := range []FleetTickRequest{{}, {Ticks: 4}, {WS: ws}, {Ticks: 1, WS: ws}} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := decodeTickOnePass(body); !ok {
			t.Errorf("%s: not taken by the one-pass decoder", body)
		}
		checkTickBody(t, body)
	}
}

// FuzzFleetTickRequest is the differential fuzzer of the tick body
// decoder against encoding/json's Decoder.
func FuzzFleetTickRequest(f *testing.F) {
	for _, s := range tickWSSeeds {
		f.Add([]byte(`{"ws":` + s + `}`))
	}
	for _, s := range tickBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTickBody(t, data)
	})
}
