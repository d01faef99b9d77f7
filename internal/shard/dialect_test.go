package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"climber"
	"climber/internal/api"
	"climber/internal/dataset"
	"climber/internal/server"
)

// speaker is one end of the conformance table: a service and the /stats
// section its front's counters are under.
type speaker struct {
	name, url, section string
}

// say posts body and returns the status and, for a non-200, the error text.
func (s speaker) say(t *testing.T, path, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(s.url+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e api.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// stall opens a request whose body stops arriving after its first bytes. It
// is admitted and then holds its slot until the read deadline cuts it off.
func (s speaker) stall(t *testing.T, contentType string, first []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(s.url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST /search HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
		contentType, len(first)+100, first)
	return conn
}

// until polls the speaker's counter row key for the value want.
func (s speaker) until(t *testing.T, key string, want float64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); counters(t, s.url, s.section)[key] != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s never reached %v", s.name, key, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterSpeaksServerDialect sends the same refusals, as JSON and as
// frames, to a server and to a router over that server: one front answers
// both, so status and error text agree — except where the shard, not the
// router, is the one that can refuse, and the router relays its answer under
// the documented "shard <id>: status <n>: " prefix.
func TestRouterSpeaksServerDialect(t *testing.T) {
	ds := dataset.RandomWalk(64, 240, 99)
	db, err := climber.BuildDataset(t.TempDir(), ds, fixtureOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := api.ServeConfig{
		MaxK: 50, MaxBodyBytes: 4096, MaxInFlight: 1,
		QueueTimeout: 100 * time.Millisecond, BodyReadTimeout: 500 * time.Millisecond,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), // every stalled request is a "slow query"
	}
	shard := httptest.NewServer(server.New(db, server.Config{ServeConfig: cfg}).Handler())
	topo := &Topology{Shards: []Info{{ID: "shard-0", URL: shard.URL}}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, Config{ServeConfig: cfg, HealthInterval: 50 * time.Millisecond})
	routed := httptest.NewServer(r.Service().Handler())
	t.Cleanup(func() { routed.Close(); r.Close(); shard.Close(); db.Close() })
	speakers := []speaker{{"server", shard.URL, "server"}, {"router", routed.URL, "router"}}

	q := ds.Get(7)
	good := api.SearchRequest{Query: q, K: 5}
	goodJSON, _ := json.Marshal(good)
	goodFrame := api.AppendFrame(nil, &good)
	spell := func(req api.SearchRequest) [2][]byte {
		raw, _ := json.Marshal(req)
		return [2][]byte{raw, api.AppendFrame(nil, &req)}
	}
	types := [2]string{"application/json", api.FrameContentType}
	const relay = "shard shard-0: status 400: "
	for _, c := range []struct {
		name, path string
		bodies     [2][]byte // JSON, frame
		status     int
		relayed    bool // only the shard can refuse this one
	}{
		{"malformed", "/search", [2][]byte{goodJSON[:len(goodJSON)-9], goodFrame[:len(goodFrame)-9]}, 400, false},
		{"trailing data", "/search", [2][]byte{append(bytes.Clone(goodJSON), '}'), append(bytes.Clone(goodFrame), 0)}, 400, false},
		{"wrong length", "/search", spell(api.SearchRequest{Query: q[:63]}), 400, false},
		{"k over MaxK", "/search", spell(api.SearchRequest{Query: q, K: 51}), 400, false},
		{"unknown variant", "/search", spell(api.SearchRequest{Query: q, Variant: "best"}), 400, false},
		{"oversized body", "/search/batch", [2][]byte{bytes.Repeat([]byte(" "), 5000), make([]byte, 5000)}, 413, false},
		{"too-short prefix", "/search/prefix", spell(api.SearchRequest{Query: q[:3]}), 400, true},
	} {
		for i, contentType := range types {
			status, text := speakers[0].say(t, c.path, contentType, c.bodies[i])
			rstatus, rtext := speakers[1].say(t, c.path, contentType, c.bodies[i])
			if c.relayed {
				text = relay + text
			}
			if status != c.status || rstatus != c.status || text == "" || rtext != text {
				t.Errorf("%s as %s:\n server %d %q\n router %d %q\n want %d and the same text", c.name, contentType, status, text, rstatus, rtext, c.status)
			}
		}
	}

	// The refusals of a busy front. One stalled body takes the only slot; a
	// client that hangs up in the queue behind it is a 499 nobody reads (a
	// bodiless /flush: net/http watches a connection for the hang-up only once
	// the request's body has been read), one that waits the queue out gets
	// the 429, and the stalled request itself ends as a 408.
	for _, s := range speakers {
		for i, contentType := range types {
			canceled := counters(t, s.url, s.section)["canceled"]
			conn := s.stall(t, contentType, spell(good)[i][:12])
			s.until(t, "in_flight", 1)

			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/flush", nil)
			gone := make(chan struct{})
			go func() {
				defer close(gone)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			s.until(t, "queued", 1)
			cancel()
			<-gone
			s.until(t, "canceled", canceled+1)

			if status, text := s.say(t, "/search", contentType, spell(good)[i]); status != 429 || text != "server at capacity; retry later" {
				t.Errorf("%s, %s: over capacity answered %d %q, want the 429", s.name, contentType, status, text)
			}
			reply, _ := io.ReadAll(conn)
			if !strings.HasPrefix(string(reply), "HTTP/1.1 408 ") {
				t.Errorf("%s, %s: stalled body answered %q, want a 408", s.name, contentType, reply)
			}
			s.until(t, "in_flight", 0)
		}
	}
}
