package server

import (
	"bytes"
	"climber/internal/api"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the wire goldens under testdata/ from this build's answers")

// TestWireGoldens pins the response bodies of /search, /search/prefix and
// /search/batch, byte for byte, for fixed requests against the fixed
// buildTestDB database: field names, field order, number formatting and the
// partial markers are all part of what a client sees. The files under
// testdata/ were recorded before the result and stats types became aliases
// of the engine's own, so an unchanged golden is the proof that move changed
// nothing on the wire. Re-record with `go test ./internal/server -run
// TestWireGoldens -update` only for an intended wire change.
func TestWireGoldens(t *testing.T) {
	db, data := buildTestDB(t, 1200)
	h := New(db, Config{}).Handler()
	cases := []struct {
		name, path string
		body       any
	}{
		{"search", "/search", api.SearchRequest{Query: data[311], K: 17}},
		{"search_budget", "/search", api.SearchRequest{Query: data[40], K: 300, Variant: "od-smallest", MaxPartitions: 1}},
		{"prefix", "/search/prefix", api.SearchRequest{Query: data[3][:32], K: 11, Variant: "knn"}},
		{"batch", "/search/batch", api.BatchRequest{Queries: [][]float64{data[5], data[600], data[900]}, K: 9}},
	}
	for _, c := range cases {
		rec := postJSON(t, h, c.path, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
		}
		golden := filepath.Join("testdata", "wire_"+c.name+".golden.json")
		if *updateGoldens {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: response body differs from %s\n got: %s\nwant: %s", c.name, golden, rec.Body.Bytes(), want)
		}
	}
}
