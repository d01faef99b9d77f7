package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"climber/internal/api"
)

// TestRouterCancelReachesShards: a client that hangs up at the router
// cancels the whole scatter. Two stub shards each hold a search until its
// request context ends; once both hold one, the client gives up. Each shard
// must see its request cancelled, and then no goroutine of the scatter may
// be left.
func TestRouterCancelReachesShards(t *testing.T) {
	held := make(chan string, 2)
	cancelled := make(chan string, 2)
	release := make(chan struct{}) // closed when the test ends, whatever happened
	topo := &Topology{}
	for i := range 2 {
		id := fmt.Sprintf("shard-%d", i)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(http.ResponseWriter, *http.Request) {})
		mux.HandleFunc("GET /info", func(w http.ResponseWriter, _ *http.Request) {
			api.WriteJSON(w, http.StatusOK, api.InfoResponse{SeriesLen: 64, NumRecords: 10})
		})
		mux.HandleFunc("POST /search", func(w http.ResponseWriter, r *http.Request) {
			// Reading the body to its end lets the server watch the
			// connection, and cancel the request when the router drops it.
			_, _ = io.Copy(io.Discard, r.Body)
			held <- id
			select {
			case <-r.Context().Done():
				cancelled <- id
			case <-release:
			}
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		topo.Shards = append(topo.Shards, Info{ID: id, URL: ts.URL})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{HealthInterval: time.Hour})
	front := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { front.Close(); r.Close() })
	t.Cleanup(func() { close(release) }) // first: a shard still holding lets go

	body, err := json.Marshal(api.SearchRequest{Query: make([]float64, 64), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientDone := make(chan error, 1)
	go func() {
		resp, err := front.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()

	deadline := time.After(5 * time.Second)
	for range 2 {
		select {
		case <-held:
		case <-deadline:
			t.Fatal("the shards never received the scatter")
		}
	}
	hangUp()
	for range 2 {
		select {
		case <-cancelled:
		case <-deadline:
			t.Fatal("a shard's request was not cancelled after the client hung up")
		}
	}
	if err := <-clientDone; err == nil {
		t.Fatal("the cancelled client request succeeded")
	}
	if n := waitGoroutines("(*Router).scatter", 5*time.Second); n > 0 {
		t.Fatalf("%d goroutines of the scatter are left after the client hung up", n)
	}
}

// waitGoroutines waits up to timeout for no goroutine's stack to name fn, and
// returns how many still do.
func waitGoroutines(fn string, timeout time.Duration) int {
	end := time.Now().Add(timeout)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, fn) {
				n++
			}
		}
		if n == 0 || time.Now().After(end) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
