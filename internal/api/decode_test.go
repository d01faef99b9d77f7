package api

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Every decoder rejects a reading that is finite in float64 but not in
// float32, the precision the index stores: on disk it would be +Inf, every
// distance to it +Inf or NaN. The largest float32 itself passes.
func TestDecodersRejectFloat32Overflow(t *testing.T) {
	const seriesLen = 4
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	series := func(x float64) []float64 { return []float64{0, x, 0, 0} }
	cases := []struct {
		name string
		x    float64
		ok   bool
	}{
		{"zero", 0, true},
		{"max float32", math.MaxFloat32, true},
		{"negative max float32", -math.MaxFloat32, true},
		{"rounds down to max float32", math.MaxFloat32 * (1 + 1e-9), true},
		{"1e39", 1e39, false},
		{"-1e39", -1e39, false},
		{"max float64", math.MaxFloat64, false},
	}
	for _, c := range cases {
		decoders := map[string]error{}
		_, decoders["search"] = DecodeSearchRequest(body(SearchRequest{Query: series(c.x)}), seriesLen, 100)
		_, decoders["prefix"] = JSON.DecodePrefix(body(SearchRequest{Query: series(c.x)[:2]}), 2, seriesLen, 100)
		_, decoders["batch"] = JSON.DecodeBatch(body(BatchRequest{Queries: [][]float64{series(0), series(c.x)}}), seriesLen, 100, 8)
		_, decoders["append"] = DecodeAppendRequest(body(AppendRequest{Series: [][]float64{series(c.x)}}), seriesLen, 8)
		for name, err := range decoders {
			switch {
			case c.ok && err != nil:
				t.Errorf("%s/%s: rejected: %v", c.name, name, err)
			case !c.ok && err == nil:
				t.Errorf("%s/%s: accepted %v", c.name, name, c.x)
			case !c.ok && !strings.Contains(err.Error(), "float32"):
				t.Errorf("%s/%s: error %q does not name the storage precision", c.name, name, err)
			}
		}
	}
}

// A body is exactly one JSON value plus whitespace. A stray closer after it
// used to pass: the trailing-data check asked Decoder.More(), which is false
// at ']' and '}'. Both the single-pass decoder and the encoding/json
// fallback (reached here through the unknown key) hold the rule.
func TestTrailingDataRejected(t *testing.T) {
	const seriesLen = 4
	for _, tail := range []string{"}", "]", " }}}", "x", " 1", "{}", "\n\t \r"} {
		wantErr := strings.TrimSpace(tail) != ""
		for _, head := range []string{`{"query":[1,2,3,4]}`, `{"query":[1,2,3,4],"unknown":null}`} {
			body := []byte(head + tail)
			_, err := DecodeSearchRequest(body, seriesLen, 100)
			switch {
			case wantErr && err == nil:
				t.Errorf("%q: accepted", body)
			case wantErr && err.Error() != "trailing data after JSON body":
				t.Errorf("%q: error %q, want the trailing-data refusal", body, err)
			case !wantErr && err != nil:
				t.Errorf("%q: rejected: %v", body, err)
			}
		}
		if _, err := JSON.DecodeBatch([]byte(`{"queries":[[1,2,3,4]]}`+tail), seriesLen, 100, 8); wantErr != (err != nil) {
			t.Errorf("batch with tail %q: err = %v", tail, err)
		}
		if _, err := DecodeAppendRequest([]byte(`{"series":[[1,2,3,4]]}`+tail), seriesLen, 8); wantErr != (err != nil) {
			t.Errorf("append with tail %q: err = %v", tail, err)
		}
	}
}
