package api

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeDifferential holds the single-pass decoder to its contract: for
// any bytes it either declines or returns exactly the request encoding/json
// returns (reflect.DeepEqual, so -0 vs 0 and nil vs empty count), and the
// public decoders answer with the same request or the same error text as
// the encoding/json path alone — which is what they were before the fast
// path existed, so no JSON client can see a difference in a 400.
func FuzzDecodeDifferential(f *testing.F) {
	for _, seed := range []string{
		`{"query":[1,2,3,4],"k":5}`,
		`{"query": [0.5, -1.25, 3e10, 4e-10], "k": 1, "variant": "knn", "explain": true}`,
		`{"k":3,"variant":"od-smallest","max_partitions":3,"time_budget_ms":50,"query":[-0,0.0,1E5,1e-400]}`,
		`{"queries":[[1,2,3,4],[5,6,7,8]],"k":2}`,
		`{"series":[[1,2,3,4],[5,6,7,8],[9,10,11,12]]}`,
		`{"query":[1,2,3,4],"k":5}}`, `{"query":[1,2,3,4]}]`, `{"query":[1,2,3,4]} x`,
		`{"Query":[1,2,3,4]}`, `{"query":[1,2,3,4],"query":[4,3,2,1]}`, `{"query":null,"k":null}`,
		`{"query":[1,2,3,4],"variant":"kn\u006e"}`, `{"query":[1,2,3,4],"k":1e1}`, `{"query":[1e999,2,3,4]}`,
		`{"query":[1,2,3]}`, `{"query":[1,2,1e39,4]}`, `{"query":[1,2,3,4],"k":-7}`, `{"queries":[[1,2,3,4],[1,2]]}`,
		`{"query":[]}`, `{}`, `null`, ``, "\x00\xff",
		// Numbers at the edges of the decoder's own conversion.
		`{"query":[9007199254740993,2.2250738585072011e-308,4.9e-324,1.7976931348623157e308]}`,
		`{"query":[1.7976931348623159e308,-0,0e5,1E+22]}`,
		`{"query":[1e23,1234567890123456789,12345678901234567890,0.000000000000000000000000000001234567890123456789]}`,
		`{"series":[[9999999999999999999e-348,9007199254740991e347,-9007199254740993e-22,18446744073709551616]]}`,
	} {
		f.Add([]byte(seed))
	}
	const seriesLen, maxK, maxBatch, maxAppend = 4, 100, 3, 3
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs, ss SearchRequest
		if fastDecode(data, searchFields(&fs), seriesLen, 0) {
			if err := DecodeJSON(data, &ss); err != nil || !reflect.DeepEqual(fs, ss) {
				t.Fatalf("search: fast path accepted %q as %+v; encoding/json says %+v, %v", data, fs, ss, err)
			}
		}
		var fb, sb BatchRequest
		if fastDecode(data, batchFields(&fb), seriesLen, maxBatch) {
			if err := DecodeJSON(data, &sb); err != nil || !reflect.DeepEqual(fb, sb) {
				t.Fatalf("batch: fast path accepted %q as %+v; encoding/json says %+v, %v", data, fb, sb, err)
			}
		}
		var fa, sa AppendRequest
		if fastDecode(data, appendFields(&fa), seriesLen, maxAppend) {
			if err := DecodeJSON(data, &sa); err != nil || !reflect.DeepEqual(fa, sa) {
				t.Fatalf("append: fast path accepted %q as %+v; encoding/json says %+v, %v", data, fa, sa, err)
			}
		}

		got, gotErr := DecodeSearchRequest(data, seriesLen, maxK)
		want, wantErr := slowSearch(data, seriesLen, seriesLen, maxK, false)
		sameOutcome(t, "DecodeSearchRequest", got, gotErr, want, wantErr)
		got, gotErr = JSON.DecodePrefix(data, 2, seriesLen, maxK)
		want, wantErr = slowSearch(data, 2, seriesLen, maxK, true)
		sameOutcome(t, "DecodePrefix", got, gotErr, want, wantErr)
		gotB, gotErr := JSON.DecodeBatch(data, seriesLen, maxK, maxBatch)
		wantB, wantErr := slowBatch(data, seriesLen, maxK, maxBatch)
		sameOutcome(t, "DecodeBatch", gotB, gotErr, wantB, wantErr)
		gotA, gotErr := DecodeAppendRequest(data, seriesLen, maxAppend)
		wantA, wantErr := slowAppend(data, seriesLen, maxAppend)
		sameOutcome(t, "DecodeAppendRequest", gotA, gotErr, wantA, wantErr)
	})
}

// fuzzRequests builds one request of each kind out of fuzz bytes: the
// options from the first bytes, every following 8 bytes one reading (any
// bit pattern — NaNs, infinities, denormals), cut into rows of rowLen.
func fuzzRequests(data []byte, rowLen uint8) (SearchRequest, BatchRequest, AppendRequest) {
	var sreq SearchRequest
	if len(data) >= 4 {
		sreq.K = int(int8(data[0])) * 3
		sreq.MaxPartitions = int(int8(data[1]))
		sreq.TimeBudgetMS = int(int8(data[2])) * 40000
		sreq.Explain = data[3]&1 != 0
		sreq.Variant = []string{"", "knn", "adaptive-2x", "adaptive-4x", "od-smallest", "bogus"}[int(data[3]>>1)%6]
		data = data[4:]
	}
	for ; len(data) >= 8; data = data[8:] {
		sreq.Query = append(sreq.Query, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	if len(data) > 0 && utf8.Valid(data) {
		sreq.Variant = string(data) // an arbitrary (refused) variant now and then
	}
	var rows [][]float64
	if n := int(rowLen%7) + 1; len(sreq.Query) > 0 {
		for q := sreq.Query; len(q) > 0; q = q[min(n, len(q)):] {
			rows = append(rows, q[:min(n, len(q))])
		}
	}
	breq := BatchRequest{
		Queries: rows, K: sreq.K, Variant: sreq.Variant,
		MaxPartitions: sreq.MaxPartitions, TimeBudgetMS: sreq.TimeBudgetMS, Explain: sreq.Explain,
	}
	return sreq, breq, AppendRequest{Series: rows}
}

// FuzzFrame checks the frame codec three ways. Arbitrary bytes never panic
// a decoder or make it allocate more than a small multiple of its input.
// A request built from the bytes survives encode-decode unchanged. And a
// frame and the JSON rendering of the same request decode — through the
// public, validating decoders — to identical requests or identical
// refusals under the same limits.
func FuzzFrame(f *testing.F) {
	for _, v := range frameFixtures() {
		f.Add(AppendFrame(nil, v), uint8(4))
	}
	f.Add([]byte("CLMF\x01\x01\x00\x00\xff\xff\xff\xff"), uint8(1))
	f.Add([]byte("CLMF\x01\x03\x00\x00\x04\x00\x00\x00\xff\xff\xff\xff"), uint8(2))
	f.Add([]byte{}, uint8(0))
	const seriesLen, maxK, maxBatch, maxAppend = 4, 100, 3, 3
	f.Fuzz(func(t *testing.T, data []byte, rowLen uint8) {
		// 1. Arbitrary bytes: an error or a value, never a panic.
		for _, v := range []any{
			new(SearchRequest), new(BatchRequest), new(AppendRequest),
			new(SearchResponse), new(BatchResponse), new(AppendResponse),
		} {
			if err := DecodeFrame(data, v); err == nil {
				// Nothing is sized from a count the bytes do not back: a
				// reading, result or ID costs at least 8 bytes of input.
				if n := elements(reflect.ValueOf(v)); 8*n > len(data) {
					t.Fatalf("%T: %d elements decoded out of %d bytes", v, n, len(data))
				}
				// What decodes re-encodes to something that decodes equal.
				back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
				if err := DecodeFrame(AppendFrame(nil, v), back); err != nil || !equalBits(back, v) {
					t.Fatalf("%T decoded from %x does not survive re-encoding: %+v vs %+v (%v)", v, data, back, v, err)
				}
			}
		}

		// 2. Requests built from the bytes round-trip exactly.
		sreq, breq, areq := fuzzRequests(data, rowLen)
		for _, v := range []any{&sreq, &breq, &areq} {
			back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
			if err := DecodeFrame(AppendFrame(nil, v), back); err != nil {
				t.Fatalf("%+v: encode-decode failed: %v", v, err)
			}
			if !equalBits(back, v) {
				t.Fatalf("encode-decode changed the request: %+v became %+v", v, back)
			}
		}

		// 3. Frame and JSON spellings of one request agree, limits included.
		// (A request JSON cannot spell — a NaN or infinite reading — is
		// only required to be refused.)
		if body, err := json.Marshal(sreq); err == nil {
			got, gotErr := Frame.DecodeSearch(AppendFrame(nil, &sreq), seriesLen, maxK)
			want, wantErr := DecodeSearchRequest(body, seriesLen, maxK)
			sameOutcome(t, "search frame vs JSON", got, gotErr, want, wantErr)
			got, gotErr = Frame.DecodePrefix(AppendFrame(nil, &sreq), 2, seriesLen, maxK)
			want, wantErr = JSON.DecodePrefix(body, 2, seriesLen, maxK)
			sameOutcome(t, "prefix frame vs JSON", got, gotErr, want, wantErr)
		} else if _, err := Frame.DecodeSearch(AppendFrame(nil, &sreq), seriesLen, maxK); err == nil {
			t.Fatalf("frame accepted a request JSON cannot spell: %+v", sreq)
		}
		if body, err := json.Marshal(breq); err == nil {
			got, gotErr := Frame.DecodeBatch(AppendFrame(nil, &breq), seriesLen, maxK, maxBatch)
			want, wantErr := JSON.DecodeBatch(body, seriesLen, maxK, maxBatch)
			sameOutcome(t, "batch frame vs JSON", got, gotErr, want, wantErr)
		}
		if body, err := json.Marshal(areq); err == nil {
			got, gotErr := Frame.DecodeAppend(AppendFrame(nil, &areq), seriesLen, maxAppend)
			want, wantErr := DecodeAppendRequest(body, seriesLen, maxAppend)
			sameOutcome(t, "append frame vs JSON", got, gotErr, want, wantErr)
		}
	})
}

// equalBits is reflect.DeepEqual with NaN equal to itself: both values are
// rendered to frames, which carry every float64 as its bits.
func equalBits(a, b any) bool {
	return reflect.DeepEqual(a, b) || string(AppendFrame(nil, a)) == string(AppendFrame(nil, b))
}

// elements counts the float64s, ints and results reachable through v's
// slices — the things a frame pays at least 8 bytes apiece for.
func elements(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return elements(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Slice {
				n += elements(v.Field(i))
			}
		}
		return n
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Slice {
			return v.Len()
		}
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
		return n
	}
	return 0
}
