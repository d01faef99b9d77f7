package shard

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"climber/internal/api"
)

var updateGoldens = flag.Bool("update", false, "rewrite the wire goldens under testdata/ from this build's answers")

// TestRouterWireGoldens pins the router's response bodies for /search,
// /search/prefix and /search/batch over two shards, byte for byte, for fixed
// requests against the fixed fixture — the routed counterpart of the server
// package's TestWireGoldens, recorded before the result and stats types
// became aliases of the engine's own. Re-record with `go test
// ./internal/shard -run TestRouterWireGoldens -update` only for an intended
// wire change.
func TestRouterWireGoldens(t *testing.T) {
	f := newFixture(t, 240, 2)
	_, ts := f.startRouter(t, Config{})
	cases := []struct {
		name, path string
		body       any
	}{
		{"search", "/search", api.SearchRequest{Query: f.data[57], K: 20}},
		{"prefix", "/search/prefix", api.SearchRequest{Query: f.data[42][:32], K: 12, Variant: "knn"}},
		{"batch", "/search/batch", api.BatchRequest{Queries: [][]float64{f.data[11], f.data[120], f.data[200]}, K: 7}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		golden := filepath.Join("testdata", "wire_"+c.name+".golden.json")
		if *updateGoldens {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: response body differs from %s\n got: %s\nwant: %s", c.name, golden, body, want)
		}
	}
}
