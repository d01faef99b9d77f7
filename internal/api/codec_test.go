package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"climber"
	"climber/internal/obs"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden frames under testdata/ from this build's encoder")

// slowSearch, slowBatch and slowAppend are the decoders as they were before
// the single-pass decoder existed: encoding/json, then the same validation.
// They are the reference every differential test compares against.
func slowSearch(data []byte, minLen, seriesLen, maxK int, prefix bool) (*SearchRequest, error) {
	var req SearchRequest
	if err := DecodeJSON(data, &req); err != nil {
		return nil, err
	}
	if err := req.validate(minLen, seriesLen, maxK, prefix); err != nil {
		return nil, err
	}
	return &req, nil
}

func slowBatch(data []byte, seriesLen, maxK, maxBatch int) (*BatchRequest, error) {
	var req BatchRequest
	if err := DecodeJSON(data, &req); err != nil {
		return nil, err
	}
	if err := req.validate(seriesLen, maxK, maxBatch); err != nil {
		return nil, err
	}
	return &req, nil
}

func slowAppend(data []byte, seriesLen, maxAppend int) (*AppendRequest, error) {
	var req AppendRequest
	if err := DecodeJSON(data, &req); err != nil {
		return nil, err
	}
	if err := req.validate(seriesLen, maxAppend); err != nil {
		return nil, err
	}
	return &req, nil
}

// sameOutcome fails unless two decoders agreed: the same request, or the
// same error text.
func sameOutcome(t *testing.T, what string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: err %v, reference err %v", what, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error %q, reference %q", what, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoded %+v, reference %+v", what, got, want)
	}
}

// randomSeries draws n readings that exercise the number grammar: integers,
// fractions, exponents, negative zero, denormals.
func randomSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(6) {
		case 0:
			x[i] = float64(rng.Intn(2000) - 1000)
		case 1:
			x[i] = rng.NormFloat64() * 1e-12
		case 2:
			x[i] = rng.NormFloat64() * 1e30
		case 3:
			x[i] = math.Copysign(0, -1)
		case 4:
			x[i] = 5e-324 * float64(rng.Intn(9))
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// The canonical spelling — what encoding/json, the bench client and curl
// users write — must take the fast path, and the fast path must decode it to
// exactly what encoding/json does, bit for bit.
func TestFastDecoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const seriesLen = 24
	bitsOf := func(x []float64) []uint64 {
		out := make([]uint64, len(x))
		for i, v := range x {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	for round := 0; round < 200; round++ {
		sreq := SearchRequest{
			Query: randomSeries(rng, seriesLen), K: rng.Intn(50),
			Variant:       []string{"", "knn", "adaptive-2x", "adaptive-4x", "od-smallest"}[rng.Intn(5)],
			MaxPartitions: rng.Intn(3), TimeBudgetMS: rng.Intn(3) * 100, Explain: rng.Intn(2) == 0,
		}
		body, err := json.Marshal(sreq)
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 { // the indented spelling is canonical too
			var buf bytes.Buffer
			if err := json.Indent(&buf, body, "", "\t"); err != nil {
				t.Fatal(err)
			}
			body = buf.Bytes()
		}
		var fast SearchRequest
		if !fastDecode(body, searchFields(&fast), seriesLen, 0) {
			t.Fatalf("fast path declined canonical body %s", body)
		}
		var slow SearchRequest
		if err := DecodeJSON(body, &slow); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) || !reflect.DeepEqual(bitsOf(fast.Query), bitsOf(slow.Query)) {
			t.Fatalf("search: fast %+v, encoding/json %+v", fast, slow)
		}

		rows := make([][]float64, 1+rng.Intn(4))
		for i := range rows {
			rows[i] = randomSeries(rng, seriesLen)
		}
		bbody, _ := json.Marshal(BatchRequest{Queries: rows, K: sreq.K, Variant: sreq.Variant})
		var fastB, slowB BatchRequest
		if !fastDecode(bbody, batchFields(&fastB), seriesLen, 8) {
			t.Fatalf("fast path declined canonical batch %s", bbody)
		}
		if err := DecodeJSON(bbody, &slowB); err != nil || !reflect.DeepEqual(fastB, slowB) {
			t.Fatalf("batch: fast %+v, encoding/json %+v (%v)", fastB, slowB, err)
		}
		abody, _ := json.Marshal(AppendRequest{Series: rows})
		var fastA, slowA AppendRequest
		if !fastDecode(abody, appendFields(&fastA), seriesLen, 8) {
			t.Fatalf("fast path declined canonical append %s", abody)
		}
		if err := DecodeJSON(abody, &slowA); err != nil || !reflect.DeepEqual(fastA, slowA) {
			t.Fatalf("append: fast %+v, encoding/json %+v (%v)", fastA, slowA, err)
		}
	}
}

// Everything outside the canonical spelling is declined, never guessed at;
// the public decoders then answer exactly as encoding/json always has.
func TestFastDecoderDeclines(t *testing.T) {
	for _, body := range []string{
		``, `null`, `[]`, `{`, `{"query":[1,2,3,4]`, `{"query":[1,2,3,4],}`, `{,"k":1}`,
		`{"Query":[1,2,3,4]}`, `{"QUERY":[1,2,3,4]}`, `{"query":[1,2,3,4],"extra":1}`,
		`{"query":[1,2,3,4],"query":[1,2,3,4]}`, `{"k":1,"k":2,"query":[1,2,3,4]}`,
		`{"query":null}`, `{"query":[1,2,3,4],"k":null}`, `{"query":[1,2,3,4],"explain":null}`,
		`{"query":[]}`, `{"query":[1,2,3,4,]}`, `{"query":[,1]}`, `{"query":[1 2]}`,
		`{"query":[01,2,3,4]}`, `{"query":[1.,2,3,4]}`, `{"query":[.5,2,3,4]}`, `{"query":[+1,2,3,4]}`,
		`{"query":[1e,2,3,4]}`, `{"query":[0x10,2,3,4]}`, `{"query":[1_0,2,3,4]}`, `{"query":[Inf,2,3,4]}`,
		`{"query":[NaN,2,3,4]}`, `{"query":[-,2,3,4]}`, `{"query":[1e999,2,3,4]}`, `{"query":["1",2,3,4]}`,
		`{"query":[1,2,3,4],"k":1.0}`, `{"query":[1,2,3,4],"k":1e1}`, `{"query":[1,2,3,4],"k":"5"}`,
		`{"query":[1,2,3,4],"k":01}`, `{"query":[1,2,3,4],"k":1234567890123456789}`,
		`{"query":[1,2,3,4],"variant":"kn\u006e"}`, `{"query":[1,2,3,4],"variant":"knn\n"}`, "{\"query\":[1,2,3,4],\"variant\":\"knn\n\"}",
		`{"query":[1,2,3,4],"variant":"é"}`, `{"query":[1,2,3,4],"variant":knn}`,
		`{"query":[1,2,3,4],"explain":True}`, `{"query":[1,2,3,4],"explain":1}`, `{"query":[1,2,3,4],"explain":truex}`,
		`{"query":[1,2,3,4]}}`, `{"query":[1,2,3,4]}x`, "\ufeff" + `{"query":[1,2,3,4]}`,
		`{"queries":[[1,2,3,4]]}`, `{"series":[[1,2,3,4]]}`,
	} {
		var req SearchRequest
		if fastDecode([]byte(body), searchFields(&req), 4, 0) {
			t.Errorf("fast path accepted %q as %+v", body, req)
		}
		got, gotErr := DecodeSearchRequest([]byte(body), 4, 100)
		want, wantErr := slowSearch([]byte(body), 4, 4, 100, false)
		sameOutcome(t, body, got, gotErr, want, wantErr)
	}
	var breq BatchRequest
	for _, body := range []string{
		`{"queries":[]}`, `{"queries":[[]]}`, `{"queries":[[1,2,3,4],null]}`, `{"queries":[1,2,3,4]}`,
		`{"queries":[[1,2,3,4],]}`, `{"query":[1,2,3,4]}`,
		`{"queries":[[1],[2],[3]]}`, // more rows than maxRows = 2 below
	} {
		if fastDecode([]byte(body), batchFields(&breq), 4, 2) {
			t.Errorf("fast path accepted batch %q", body)
		}
	}
}

// testSpan is a small span tree for response fixtures.
func testSpan() *obs.SpanData {
	return &obs.SpanData{
		Name: "search", StartNS: 0, DurationNS: 1234,
		Attrs:  map[string]int64{"k": 3},
		Labels: map[string]string{"variant": "knn"},
		Children: []*obs.SpanData{
			{Name: "plan", StartNS: 10, DurationNS: 100},
			{Name: "scan", StartNS: 120, DurationNS: 900, Attrs: map[string]int64{"partition": 7}},
		},
	}
}

// frameFixtures are one value of every frame kind, with every field set.
func frameFixtures() map[string]any {
	stats := climber.Stats{
		GroupsConsidered: 1, TargetNodeSize: 2, TargetPathLen: 3, PartitionsScanned: 4, RecordsScanned: 5,
		BytesLoaded: 6 << 32, DeltaScanned: 7, PartitionCacheHits: 8, PartitionCacheMisses: 9,
		StepsPlanned: 10, StepsExecuted: 11, Partial: true, BudgetExhausted: "max-partitions",
	}
	return map[string]any{
		"search_request": &SearchRequest{
			Query: []float64{1, -2.5, 3e-10, math.MaxFloat32}, K: 17, Variant: "od-smallest",
			MaxPartitions: 3, TimeBudgetMS: 250, Explain: true,
		},
		"batch_request": &BatchRequest{
			Queries: [][]float64{{1, 2, 3, 4}, {-1, -2, -3, -4}}, K: 9, Variant: "knn",
			MaxPartitions: 1, TimeBudgetMS: 60000, Explain: true,
		},
		"append_request": &AppendRequest{Series: [][]float64{{0.5, 0.25, 0.125, 0}, {4, 3, 2, 1}}},
		"search_response": &SearchResponse{
			Results: []Result{{ID: 42, Dist: 0}, {ID: 1 << 40, Dist: 1.5}, {ID: 7, Dist: math.Pi}},
			Stats:   stats, Partial: true, StepsExecuted: 11,
			Explain: map[string]*ExplainData{"": {
				RankSensitive: []int{3, 1, 2}, RankInsensitive: []int{1, 2, 3}, BestOD: 1,
				CandidateGroups: []int{4, 5}, SelectedGroup: 4, MatchedPath: []int{3, 1}, TargetNodeSize: 2,
				Partitions: []int{0, 7}, Variant: "od-smallest",
				Plan: []climber.PlanStepInfo{{Partition: 7, OD: 1, PathLen: 2, Est: 90, Clusters: 3, Executed: true}},
			}},
			Trace: testSpan(),
		},
		"batch_response": &BatchResponse{
			Results: [][]Result{{{ID: 1, Dist: 0.5}, {ID: 2, Dist: 0.75}}, nil, {{ID: 3, Dist: 9}}},
			Partial: true, StepsExecuted: 5, Trace: testSpan(),
		},
		"append_response": &AppendResponse{IDs: []int{12000, 12001, 1 << 33}},
	}
}

// TestFrameGoldens pins the frame format: each fixture must encode to the
// checked-in bytes, and those bytes must decode back to the fixture. A
// change here is a wire change — bump frameVersion, do not just re-record.
func TestFrameGoldens(t *testing.T) {
	for name, v := range frameFixtures() {
		frame := AppendFrame(nil, v)
		golden := filepath.Join("testdata", "frame_"+name+".bin")
		if *updateGoldens {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoder wrote\n%x\nthe golden frame is\n%x", name, frame, want)
		}
		back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := DecodeFrame(want, back); err != nil {
			t.Fatalf("%s: golden frame does not decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Errorf("%s: golden frame decodes to\n%+v\nwant\n%+v", name, back, v)
		}
	}
}

// Adding a field to climber.Stats without teaching the frame to carry it
// must fail here: every field gets a distinct non-zero value by reflection
// and has to survive the round trip.
func TestFrameCarriesEveryStatsField(t *testing.T) {
	var resp SearchResponse
	sv := reflect.ValueOf(&resp.Stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		switch f := sv.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("field-" + strconv.Itoa(i))
		default:
			t.Fatalf("climber.Stats.%s has kind %s: teach this test and the frame codec about it", sv.Type().Field(i).Name, f.Kind())
		}
	}
	var back SearchResponse
	if err := DecodeFrame(AppendFrame(nil, &resp), &back); err != nil {
		t.Fatal(err)
	}
	bv := reflect.ValueOf(back.Stats)
	for i := 0; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(sv.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("climber.Stats.%s does not survive the frame: sent %v, got %v",
				sv.Type().Field(i).Name, sv.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
}

// A frame that is not exactly what its header says is an error — never a
// panic, and never an allocation sized from a field nothing vouches for.
func TestFrameRefusals(t *testing.T) {
	good := AppendFrame(nil, &SearchRequest{Query: []float64{1, 2, 3, 4}, K: 5, Variant: "knn"})
	patch := func(off int, b ...byte) []byte {
		out := bytes.Clone(good)
		copy(out[off:], b)
		return out
	}
	queryCount := frameHeader + 24 + 4 + len("knn")
	cases := map[string][]byte{
		"empty":               nil,
		"short header":        good[:frameHeader-1],
		"json":                []byte(`{"query":[1,2,3,4]}`),
		"bad magic":           patch(0, 'X'),
		"future version":      patch(4, frameVersion+1),
		"version zero":        patch(4, 0),
		"wrong kind":          patch(5, kindBatchRequest),
		"response kind":       patch(5, kindSearchResponse),
		"length too small":    patch(8, byte(len(good)-frameHeader-1)),
		"length too large":    patch(8, byte(len(good)-frameHeader+1)),
		"truncated":           good[:len(good)-3],
		"trailing byte":       append(bytes.Clone(good), 0),
		"huge query count":    patch(queryCount, 0xff, 0xff, 0xff, 0xff),
		"query count one off": patch(queryCount, 5),
		"huge variant length": patch(frameHeader+24, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, frame := range cases {
		var req SearchRequest
		err := DecodeFrame(frame, &req)
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, req)
			continue
		}
		if !strings.HasPrefix(err.Error(), "frame: ") {
			t.Errorf("%s: error %q does not say it is about the frame", name, err)
		}
		if _, err := Frame.DecodeSearch(frame, 4, 100); err == nil {
			t.Errorf("%s: accepted by Frame.DecodeSearch", name)
		}
	}
	// A 16-byte body claiming 2^32-1 rows must not allocate for them.
	huge := AppendFrame(nil, &AppendRequest{})
	copy(huge[frameHeader:], []byte{0xff, 0xff, 0xff, 0xff})
	allocs := testing.AllocsPerRun(10, func() {
		var req AppendRequest
		if DecodeFrame(huge, &req) == nil {
			t.Fatal("accepted a row count the body cannot hold")
		}
	})
	if allocs > 2 {
		t.Errorf("refusing an impossible count allocated %.0f times", allocs)
	}
}

// A frame is held to every limit a JSON body is, with the same words.
func TestFrameSameLimitsAsJSON(t *testing.T) {
	const seriesLen, maxK, maxBatch, maxAppend = 4, 100, 2, 2
	ok := []float64{1, 2, 3, 4}
	type both struct {
		frame, json error
	}
	search := func(req SearchRequest, prefix bool) both {
		body, _ := json.Marshal(req)
		var b both
		if prefix {
			_, b.frame = Frame.DecodePrefix(AppendFrame(nil, &req), 2, seriesLen, maxK)
			_, b.json = JSON.DecodePrefix(body, 2, seriesLen, maxK)
		} else {
			_, b.frame = Frame.DecodeSearch(AppendFrame(nil, &req), seriesLen, maxK)
			_, b.json = DecodeSearchRequest(body, seriesLen, maxK)
		}
		return b
	}
	batch := func(req BatchRequest) both {
		body, _ := json.Marshal(req)
		var b both
		_, b.frame = Frame.DecodeBatch(AppendFrame(nil, &req), seriesLen, maxK, maxBatch)
		_, b.json = JSON.DecodeBatch(body, seriesLen, maxK, maxBatch)
		return b
	}
	appendTo := func(req AppendRequest) both {
		body, _ := json.Marshal(req)
		var b both
		_, b.frame = Frame.DecodeAppend(AppendFrame(nil, &req), seriesLen, maxAppend)
		_, b.json = DecodeAppendRequest(body, seriesLen, maxAppend)
		return b
	}
	cases := map[string]both{
		"k over limit":        search(SearchRequest{Query: ok, K: maxK + 1}, false),
		"negative k":          search(SearchRequest{Query: ok, K: -1}, false),
		"bad variant":         search(SearchRequest{Query: ok, Variant: "bogus"}, false),
		"negative partitions": search(SearchRequest{Query: ok, MaxPartitions: -1}, false),
		"budget over an hour": search(SearchRequest{Query: ok, TimeBudgetMS: MaxTimeBudgetMS + 1}, false),
		"short query":         search(SearchRequest{Query: ok[:3]}, false),
		"empty query":         search(SearchRequest{}, false),
		"float32 overflow":    search(SearchRequest{Query: []float64{1, 1e39, 3, 4}}, false),
		"prefix too short":    search(SearchRequest{Query: ok[:1]}, true),
		"prefix too long":     search(SearchRequest{Query: append(ok, 5)}, true),
		"batch too large":     batch(BatchRequest{Queries: [][]float64{ok, ok, ok}}),
		"empty batch":         batch(BatchRequest{}),
		"ragged batch":        batch(BatchRequest{Queries: [][]float64{ok, ok[:2]}}),
		"append too large":    appendTo(AppendRequest{Series: [][]float64{ok, ok, ok}}),
		"append wrong length": appendTo(AppendRequest{Series: [][]float64{ok[:3]}}),
		"empty append":        appendTo(AppendRequest{}),
	}
	for name, b := range cases {
		if b.json == nil || b.frame == nil {
			t.Errorf("%s: accepted (json err %v, frame err %v)", name, b.json, b.frame)
		} else if b.json.Error() != b.frame.Error() {
			t.Errorf("%s: JSON refuses with %q, the frame with %q", name, b.json, b.frame)
		}
	}
	// JSON cannot spell NaN or an infinity; a frame can, and is refused.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		frame := AppendFrame(nil, &SearchRequest{Query: []float64{1, v, 3, 4}})
		if _, err := Frame.DecodeSearch(frame, seriesLen, maxK); err == nil || !strings.Contains(err.Error(), "float32") {
			t.Errorf("reading %v in a frame: err = %v, want the float32 refusal", v, err)
		}
	}
}

// canonicalSearchBody renders a /search body the way the bench client and
// encoding/json do: shortest round-trip floats, no spaces.
func canonicalSearchBody(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 10
	}
	body, _ := json.Marshal(SearchRequest{Query: x, K: 50, Variant: "adaptive-4x"})
	return body
}

func canonicalAppendBody(rows, n int) []byte {
	rng := rand.New(rand.NewSource(2))
	req := AppendRequest{Series: make([][]float64, rows)}
	for i := range req.Series {
		req.Series[i] = make([]float64, n)
		for j := range req.Series[i] {
			req.Series[i][j] = rng.NormFloat64() * 10
		}
	}
	body, _ := json.Marshal(req)
	return body
}

// The canonical /search decode allocates the request and its query, nothing
// per number: a regression to one allocation per reading (a string built on
// the heap for strconv) shows here as hundreds.
func TestDecodeSearchAllocs(t *testing.T) {
	body := canonicalSearchBody(256)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeSearchRequest(body, 256, 10000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("canonical /search decode: %.0f allocations per request, ceiling 4", allocs)
	}
}

// ReadAll sizes its buffer from the declared length, survives a wrong or
// absent declaration, and recycles what it is handed back.
func TestReadAllSizesFromContentLength(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 4000) // 40 KB
	for _, declared := range []int64{-1, 0, 10, int64(len(payload)), 1 << 40} {
		buf, err := ReadAll(bytes.NewReader(payload), declared)
		if err != nil || !bytes.Equal(buf.B, payload) {
			t.Fatalf("declared %d: read %d bytes, err %v", declared, len(buf.B), err)
		}
		if declared == 1<<40 && cap(buf.B) > 2*len(payload)+maxPooledBytes {
			t.Errorf("declared %d: buffer of %d bytes sized from the claim alone", declared, cap(buf.B))
		}
		buf.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf, err := ReadAll(bytes.NewReader(payload), int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		buf.Release()
	})
	if allocs > 2 { // the bytes.Reader, and a pool refill after a GC
		t.Errorf("steady-state ReadAll: %.0f allocations per body", allocs)
	}
}

// Spelling.Write answers a frame with the frame content type and an exact
// Content-Length, and JSON exactly as WriteJSON does.
func TestSpellingWrite(t *testing.T) {
	resp := &AppendResponse{IDs: []int{1, 2, 3}}
	rec := httptest.NewRecorder()
	Frame.Write(rec, http.StatusOK, resp)
	if ct := rec.Header().Get("Content-Type"); ct != FrameContentType {
		t.Errorf("frame answer has Content-Type %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a body of %d bytes", cl, rec.Body.Len())
	}
	var back AppendResponse
	if err := DecodeFrame(rec.Body.Bytes(), &back); err != nil || !reflect.DeepEqual(&back, resp) {
		t.Errorf("frame answer decodes to %+v (%v)", back, err)
	}
	if SpellingOf(rec.Header()) != Frame || SpellingOf(http.Header{}) != JSON {
		t.Error("SpellingOf does not follow the Content-Type")
	}
	jrec, wrec := httptest.NewRecorder(), httptest.NewRecorder()
	JSON.Write(jrec, http.StatusOK, resp)
	WriteJSON(wrec, http.StatusOK, resp)
	if !bytes.Equal(jrec.Body.Bytes(), wrec.Body.Bytes()) {
		t.Errorf("JSON.Write wrote %s, WriteJSON %s", jrec.Body, wrec.Body)
	}
}

var sink any

// BenchmarkReadBody: reading a 5 KB /search body and a 40 KB /append body
// off a request, as io.ReadAll did it (doubling from 512 bytes) and as
// ReadBody does it now (one recycled buffer sized from Content-Length).
func BenchmarkReadBody(b *testing.B) {
	for _, body := range [][]byte{canonicalSearchBody(256), canonicalAppendBody(8, 256)} {
		name := strconv.Itoa(len(body)/1000) + "KB"
		b.Run("io.ReadAll/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
				raw, err := io.ReadAll(http.MaxBytesReader(httptest.NewRecorder(), req.Body, 32<<20))
				if err != nil || len(raw) != len(body) {
					b.Fatal(err)
				}
			}
		})
		b.Run("ReadBody/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
				raw, _, err := ReadBody(httptest.NewRecorder(), req, 32<<20, time.Minute)
				if err != nil || len(raw.B) != len(body) {
					b.Fatal(err)
				}
				raw.Release()
			}
		})
	}
}

// reportPerNumber adds the mean cost of one of the body's numbers.
func reportPerNumber(b *testing.B, numbers int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numbers), "ns/number")
}

// BenchmarkDecodeSearch: a 256-point /search body, as the single-pass
// decoder reads it, as encoding/json (the fallback and former only path)
// reads it, and as a frame.
func BenchmarkDecodeSearch(b *testing.B) {
	body := canonicalSearchBody(256)
	req, err := DecodeSearchRequest(body, 256, 10000)
	if err != nil {
		b.Fatal(err)
	}
	frame := AppendFrame(nil, req)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			sink, _ = DecodeSearchRequest(body, 256, 10000)
		}
		reportPerNumber(b, 256)
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			sink, _ = slowSearch(body, 256, 256, 10000, false)
		}
		reportPerNumber(b, 256)
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			sink, _ = Frame.DecodeSearch(frame, 256, 10000)
		}
		reportPerNumber(b, 256)
	})
}

// BenchmarkDecodeAppend: an 8-series x 256-point /append body, three ways.
func BenchmarkDecodeAppend(b *testing.B) {
	body := canonicalAppendBody(8, 256)
	req, err := DecodeAppendRequest(body, 256, 1024)
	if err != nil {
		b.Fatal(err)
	}
	frame := AppendFrame(nil, req)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			sink, _ = DecodeAppendRequest(body, 256, 1024)
		}
		reportPerNumber(b, 8*256)
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			sink, _ = slowAppend(body, 256, 1024)
		}
		reportPerNumber(b, 8*256)
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			sink, _ = Frame.DecodeAppend(frame, 256, 1024)
		}
		reportPerNumber(b, 8*256)
	})
}

// BenchmarkFrameRoundTrip: what one shard answer costs the hop — encode on
// the shard plus decode on the router — for a 50-result search response,
// JSON beside the frame.
func BenchmarkFrameRoundTrip(b *testing.B) {
	resp := &SearchResponse{Stats: climber.Stats{PartitionsScanned: 1, RecordsScanned: 2500, BytesLoaded: 2 << 20, StepsPlanned: 1, StepsExecuted: 1}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		resp.Results = append(resp.Results, Result{ID: rng.Intn(200000), Dist: rng.Float64() * 30})
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rec := httptest.NewRecorder()
			WriteJSON(rec, http.StatusOK, resp)
			var back SearchResponse
			if err := DecodeJSON(rec.Body.Bytes(), &back); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			rec := httptest.NewRecorder()
			Frame.Write(rec, http.StatusOK, resp)
			var back SearchResponse
			if err := DecodeFrame(rec.Body.Bytes(), &back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
