package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// machineLabels are the label values that depend on the build or the host
// rather than on the code that renders the line.
var machineLabels = regexp.MustCompile(`(impl|version)="[^"]*"`)

// metricNames reduces a /metrics body to what a scraper's configuration
// depends on: the HELP and TYPE lines verbatim and every sample's name and
// labels, in order, values dropped.
func metricNames(body []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out.WriteString(machineLabels.ReplaceAllString(line, `$1="*"`) + "\n")
	}
	return out.Bytes()
}

// statsKeys lists the keys of every object in a JSON document, dotted from
// the root, in document order.
func statsKeys(t *testing.T, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	dec := json.NewDecoder(bytes.NewReader(body))
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, _ := dec.Token()
				p := strings.TrimPrefix(fmt.Sprintf("%s.%s", path, key), ".")
				out.WriteString(p + "\n")
				walk(p)
			}
			dec.Token()
		case json.Delim('['):
			for dec.More() {
				walk(path + "[]")
			}
			dec.Token()
		}
	}
	walk("")
	return out.Bytes()
}

// TestObservabilityGoldens pins what dashboards and scrapers key on: for a
// climber-serve and for a router over two of them, the HELP/TYPE/sample-name
// lines of GET /metrics in order (values masked) and the ordered key list of
// every object in GET /stats. Both are rendered from the services' counter
// rows; the files were recorded before the rows existed, so an unchanged
// golden is the proof that the table moved nothing. Re-record with `go test
// ./internal/shard -run TestObservabilityGoldens -update` only for an
// intended change.
func TestObservabilityGoldens(t *testing.T) {
	f := newFixture(t, 240, 2)
	_, ts := f.startRouter(t, Config{})
	for name, base := range map[string]string{"serve": f.servers[0].URL, "router": ts.URL} {
		_, metrics := getBody(t, base+"/metrics")
		_, stats := getBody(t, base+"/stats")
		for golden, got := range map[string][]byte{
			"metrics_" + name + ".golden.txt": metricNames(metrics),
			"stats_" + name + ".golden.txt":   statsKeys(t, stats),
		} {
			golden = filepath.Join("testdata", golden)
			if *updateGoldens {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		}
	}
}
