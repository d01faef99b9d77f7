package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"climber"
	"climber/internal/api"
	"climber/internal/obs"
)

// postFrame POSTs v to path as a frame.
func postFrame(h http.Handler, path string, v any) *httptest.ResponseRecorder {
	return postRaw(h, path, api.FrameContentType, api.AppendFrame(nil, v))
}

func postRaw(h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// zeroCacheTraffic blanks the two stats that depend on what earlier queries
// left in the partition cache, so a JSON answer and a frame answer to the
// same question compare equal.
func zeroCacheTraffic(s *climber.Stats) {
	s.PartitionCacheHits, s.PartitionCacheMisses = 0, 0
}

// TestFramedEndpointsAnswerLikeJSON: the same handlers on the same endpoints
// take a frame, and answer it in kind with exactly what the JSON spelling of
// the request gets — results, stats, partial markers, and for an explain
// request the explanation and a span tree.
func TestFramedEndpointsAnswerLikeJSON(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()

	searches := []struct {
		path string
		req  api.SearchRequest
	}{
		{"/search", api.SearchRequest{Query: data[311], K: 17}},
		{"/search", api.SearchRequest{Query: data[40], K: 300, Variant: "od-smallest", MaxPartitions: 1}},
		{"/search", api.SearchRequest{Query: data[7], K: 5, Variant: "knn", TimeBudgetMS: 60000}},
		{"/search/prefix", api.SearchRequest{Query: data[3][:32], K: 11, Variant: "knn"}},
		{"/search", api.SearchRequest{Query: data[9], K: 4, Explain: true}},
	}
	for _, c := range searches {
		var want, got api.SearchResponse
		rec := postJSON(t, h, c.path, c.req)
		if err := json.Unmarshal(rec.Body.Bytes(), &want); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s as JSON: status %d, %v", c.path, rec.Code, err)
		}
		rec = postFrame(h, c.path, &c.req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s as a frame: status %d: %s", c.path, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != api.FrameContentType {
			t.Fatalf("%s: a frame was answered with Content-Type %q", c.path, ct)
		}
		if err := api.DecodeFrame(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: answer does not decode: %v", c.path, err)
		}
		if c.req.Explain {
			if got.Trace == nil || got.Trace.Name != "search" || findChild(got.Trace, "scan") == nil {
				t.Errorf("framed explain answer has no usable span tree: %+v", got.Trace)
			}
			if !reflect.DeepEqual(got.Explain, want.Explain) || got.Explain[""] == nil {
				t.Errorf("framed explain: explanation %+v, JSON spelling got %+v", got.Explain[""], want.Explain[""])
			}
			got.Trace, want.Trace = nil, nil
		} else if got.Trace != nil || got.Explain != nil {
			t.Errorf("%s: documents in an answer nobody asked to explain", c.path)
		}
		zeroCacheTraffic(&got.Stats)
		zeroCacheTraffic(&want.Stats)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v:\nframe answer %+v\n JSON answer %+v", c.path, c.req, got, want)
		}
	}

	breq := api.BatchRequest{Queries: [][]float64{data[5], data[600], data[900]}, K: 9}
	var wantB, gotB api.BatchResponse
	if err := json.Unmarshal(postJSON(t, h, "/search/batch", breq).Body.Bytes(), &wantB); err != nil {
		t.Fatal(err)
	}
	rec := postFrame(h, "/search/batch", &breq)
	if err := api.DecodeFrame(rec.Body.Bytes(), &gotB); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("framed batch: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("batch: frame answer %+v, JSON answer %+v", gotB, wantB)
	}
	breq.Explain = true
	rec = postFrame(h, "/search/batch", &breq)
	if err := api.DecodeFrame(rec.Body.Bytes(), &gotB); err != nil || gotB.Trace == nil || len(childrenOf(gotB.Trace, "query")) != 3 {
		t.Errorf("framed explain batch: err %v, trace %+v", err, gotB.Trace)
	}

	var ids api.AppendResponse
	rec = postFrame(h, "/append", &api.AppendRequest{Series: [][]float64{data[1], data[2]}})
	if err := api.DecodeFrame(rec.Body.Bytes(), &ids); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("framed append: status %d, %v: %s", rec.Code, err, rec.Body)
	}
	if !reflect.DeepEqual(ids.IDs, []int{1200, 1201}) {
		t.Errorf("framed append acked %v, want [1200 1201]", ids.IDs)
	}

	// The operator's view from the shard side: 5 + 2 + 1 frames so far.
	var stats statsBody
	if err := json.Unmarshal(getPath(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server["framed_requests"] != 8 {
		t.Errorf("/stats framed_requests = %v, want 8", stats.Server["framed_requests"])
	}
	if m := getPath(t, h, "/metrics").Body.String(); !strings.Contains(m, "climber_framed_requests_total 8\n") {
		t.Errorf("/metrics lacks climber_framed_requests_total 8:\n%s", grepLines(m, "framed"))
	}
}

func childrenOf(d *obs.SpanData, name string) []*obs.SpanData {
	var out []*obs.SpanData
	for _, c := range d.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// TestFrameHeldToEveryLimit: a frame is refused wherever the JSON spelling
// of the same request is, with the same status and the same words, and a
// frame that is not well-formed is a 400 — all counted in bad_requests, all
// answered in JSON.
func TestFrameHeldToEveryLimit(t *testing.T) {
	db, data := buildTestDB(t, 600)
	h := New(db, Config{ServeConfig: api.ServeConfig{MaxK: 100, MaxBatch: 2, MaxAppend: 2, MaxBodyBytes: 4096}}).Handler()
	q := data[0]
	refused := 0
	check := func(name, path string, v any) {
		t.Helper()
		want := postJSON(t, h, path, v)
		got := postFrame(h, path, v)
		refused += 2
		if got.Code != want.Code || got.Code == http.StatusOK {
			t.Errorf("%s: frame status %d, JSON status %d", name, got.Code, want.Code)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s: frame refused with %s, JSON with %s", name, got.Body, want.Body)
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: error answered with Content-Type %q", name, ct)
		}
	}
	check("k over MaxK", "/search", &api.SearchRequest{Query: q, K: 101})
	check("negative k", "/search", &api.SearchRequest{Query: q, K: -1})
	check("bad variant", "/search", &api.SearchRequest{Query: q, Variant: "bogus"})
	check("negative max_partitions", "/search", &api.SearchRequest{Query: q, MaxPartitions: -2})
	check("time budget over an hour", "/search", &api.SearchRequest{Query: q, TimeBudgetMS: api.MaxTimeBudgetMS + 1})
	check("wrong series length", "/search", &api.SearchRequest{Query: q[:10]})
	check("float32 overflow", "/search", &api.SearchRequest{Query: append([]float64{1e39}, q[1:]...)})
	check("prefix below the PAA segment count", "/search/prefix", &api.SearchRequest{Query: q[:4]})
	check("batch over MaxBatch", "/search/batch", &api.BatchRequest{Queries: [][]float64{q, q, q}})
	check("append over MaxAppend", "/append", &api.AppendRequest{Series: [][]float64{q, q, q}})
	check("append of the wrong length", "/append", &api.AppendRequest{Series: [][]float64{q[:63]}})

	good := api.AppendFrame(nil, &api.SearchRequest{Query: q, K: 3})
	malformed := map[string][]byte{
		"unknown version":      append(append(bytes.Clone(good[:4]), good[4]+1), good[5:]...),
		"length disagrees":     good[:len(good)-8],
		"wrong kind for /path": api.AppendFrame(nil, &api.AppendRequest{Series: [][]float64{q}}),
		"JSON labelled frame":  []byte(`{"query":[1,2,3]}`),
		"empty":                nil,
	}
	for name, body := range malformed {
		rec := postRaw(h, "/search", api.FrameContentType, body)
		refused++
		var er api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusBadRequest || err != nil || !strings.HasPrefix(er.Error, "frame: ") {
			t.Errorf("%s: status %d, body %s", name, rec.Code, rec.Body)
		}
	}
	// A frame sent without the content type is JSON that does not parse.
	if rec := postRaw(h, "/search", "application/json", good); rec.Code != http.StatusBadRequest {
		t.Errorf("frame bytes labelled JSON: status %d, want 400", rec.Code)
	}
	refused++

	// The body cap applies before anything is decoded.
	big := api.AppendFrame(nil, &api.AppendRequest{Series: [][]float64{q, q, q, q, q, q, q, q, q}}) // 9 x 64 x 8 > 4096
	if rec := postRaw(h, "/append", api.FrameContentType, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("frame over MaxBodyBytes: status %d, want 413", rec.Code)
	}
	refused++

	var stats statsBody
	if err := json.Unmarshal(getPath(t, h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server["bad_requests"] != float64(refused) {
		t.Errorf("bad_requests = %v after %d refusals", stats.Server["bad_requests"], refused)
	}
}
