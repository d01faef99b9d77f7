package api

import (
	"math"
	"testing"
)

// FuzzSearchRequest checks the request-decode layer's contract: for any
// body bytes, decoding never panics and either returns an error (the
// handler's clean 400) or a request whose invariants make it a valid query
// — finite values, the indexed length, k within bounds, a parseable
// variant. The same bytes are also pushed through the batch decoder.
func FuzzSearchRequest(f *testing.F) {
	f.Add([]byte(`{"query": [1, 2, 3, 4], "k": 5}`))
	f.Add([]byte(`{"query": [0.5, -1.25, 3e10, 4e-10], "k": 1, "variant": "knn"}`))
	f.Add([]byte(`{"query": [1,2,3,4], "variant": "od-smallest", "max_partitions": 3}`))
	f.Add([]byte(`{"queries": [[1,2,3,4],[5,6,7,8]], "k": 2}`))
	f.Add([]byte(`{"query": [1,2,3]}`)) // wrong length
	f.Add([]byte(`{"query": [1,2,3,4], "k": -7}`))
	f.Add([]byte(`{"query": [1,2,3,4]} trailing`))
	f.Add([]byte(`{"query": "not an array"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"query": [1e999]}`))
	f.Add([]byte(`{"query": [1,2,1e39,4]}`))
	f.Add([]byte("\x00\xff\xfe"))
	// One value, then a stray closer: Decoder.More() is false at ']' and '}'.
	f.Add([]byte(`{"query":[1,2,3,4]}}`))
	f.Add([]byte(`{"query":[1,2,3,4]}]`))
	f.Add([]byte(`{"query":[1,2,3,4]} }}}`))

	const seriesLen, maxK, maxBatch = 4, 100, 8
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSearchRequest(data, seriesLen, maxK)
		if err == nil {
			if len(req.Query) != seriesLen {
				t.Fatalf("accepted query of length %d, want %d", len(req.Query), seriesLen)
			}
			for _, v := range req.Query {
				if f := float64(float32(v)); math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("accepted query value %v, not finite in float32", v)
				}
			}
			if req.K < 1 || req.K > maxK {
				t.Fatalf("accepted k=%d outside [1, %d]", req.K, maxK)
			}
			if _, verr := ParseVariant(req.Variant); verr != nil {
				t.Fatalf("accepted unparseable variant %q", req.Variant)
			}
			if req.MaxPartitions < 0 {
				t.Fatalf("accepted negative max_partitions %d", req.MaxPartitions)
			}
		}
		breq, err := JSON.DecodeBatch(data, seriesLen, maxK, maxBatch)
		if err == nil {
			if len(breq.Queries) < 1 || len(breq.Queries) > maxBatch {
				t.Fatalf("accepted batch of %d queries outside [1, %d]", len(breq.Queries), maxBatch)
			}
			for _, q := range breq.Queries {
				if len(q) != seriesLen {
					t.Fatalf("accepted batch query of length %d, want %d", len(q), seriesLen)
				}
				for _, v := range q {
					if f := float64(float32(v)); math.IsNaN(f) || math.IsInf(f, 0) {
						t.Fatalf("accepted batch value %v, not finite in float32", v)
					}
				}
			}
			if breq.K < 1 || breq.K > maxK {
				t.Fatalf("accepted batch k=%d outside [1, %d]", breq.K, maxK)
			}
		}
	})
}
