package server

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"climber/internal/api"
	"climber/internal/shard"
)

// frontKeys are the counter rows the shared front (api.Service and its
// Limiter) moves by name. Counters.Add drops a key no row declares — that is
// how a service opts out of a number — so a mistyped key would zero a
// counter without failing anything else.
var frontKeys = []string{
	"append_series", "appends", "backups", "bad_requests", "batch_queries", "batches",
	"canceled", "errors", "flushes", "framed_requests", "in_flight", "prefix_searches",
	"queued", "reindexes", "rejected", "searches", "slow_log_entries", "traced_queries",
	"unended_spans",
}

// routerOptOuts are the front's rows a router leaves undeclared: it sends
// frames rather than counting them, and counts a batch once.
var routerOptOuts = []string{"batch_queries", "framed_requests"}

// keyUses finds the counter keys a source file names: the first argument of
// Add and Bind, an endpoint's or admin post's row in the route table, and the
// counter half of an outcome (failed's switch, a backend's Classify).
var keyUses = regexp.MustCompile(`\.(?:Add|Bind)\("([a-z_]+)"|s\.(?:instrument\("[^"]+"|handleAdmin\("\w+"), "([a-z_]+)"|(?:counter = [\w.]+|return [\w.]+), "([a-z_]+)"`)

// keysIn lists the distinct counter keys the non-test Go files of dir name.
func keysIn(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources under %s: %v", dir, err)
	}
	var keys []string
	for _, f := range files {
		if matched, _ := filepath.Match("*_test.go", filepath.Base(f)); matched {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range keyUses.FindAllSubmatch(src, -1) {
			keys = append(keys, string(m[1])+string(m[2])+string(m[3]))
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// declares reports whether a row of c is named key: only a declared row can
// be bound to a value.
func declares(c *api.Counters, key string) bool {
	c.Bind(key, func() int64 { return -7 })
	return c.Load(key) == -7
}

// TestEveryCounterKeyIsDeclared holds the string keys of the counter table
// together: the front's are the ones listed above, the server's table
// declares every one of them, the router's every one but its two documented
// opt-outs, and each backend declares every key it moves itself.
func TestEveryCounterKeyIsDeclared(t *testing.T) {
	if got := keysIn(t, "../api"); !slices.Equal(got, frontKeys) {
		t.Fatalf("the front names the counter keys\n %v\nbut this test lists\n %v", got, frontKeys)
	}
	db, _ := buildTestDB(t, 300)
	rt := shard.NewRouter(shard.LocalTopology(2, 1), shard.Config{HealthInterval: time.Hour})
	defer rt.Close()
	serve, router := newBackend(db, Config{}).c, rt.Meters().Counters

	for _, key := range append(frontKeys, keysIn(t, ".")...) {
		if !declares(serve, key) {
			t.Errorf("climber-serve moves %q but no row of its table declares it", key)
		}
	}
	own := keysIn(t, "../shard")
	if len(own) < 8 {
		t.Fatalf("found only %v as the router's own keys; keyUses no longer matches its source", own)
	}
	for _, key := range append(frontKeys, own...) {
		if want := !slices.Contains(routerOptOuts, key); declares(router, key) != want {
			t.Errorf("climber-router declares %q: %v, want %v", key, !want, want)
		}
	}
}
