package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"climber"
)

// stub is a Backend that answers nothing of substance, so what these tests
// see is the front: admission, the body read, decoding, statuses, counters.
// hold runs inside every query and append call, while the request holds its
// admission slot.
type stub struct {
	c     *Counters
	shape error
	hold  func(ctx context.Context) error
	want  int // extra batch workers to ask the grant for
	got   int // what the last grant gave
}

var errTeapot = errors.New("short and stout")

func newStub() *stub {
	row := func(key string) Row { return Row{Key: key, Metric: "stub_" + key} }
	return &stub{
		hold: func(context.Context) error { return nil },
		c: NewCounters([]Row{
			row("searches"), row("batches"), row("prefix_searches"), row("appends"), row("append_series"),
			row("bad_requests"), row("framed_requests"), row("rejected"), row("canceled"), row("errors"),
			row("in_flight"), row("queued"), row("teapots"),
		}),
	}
}

func (b *stub) Shape(context.Context) (Shape, error) {
	return Shape{SeriesLen: 4, MinPrefix: 2}, b.shape
}
func (b *stub) Search(ctx context.Context, _ *SearchRequest, _ bool) (*SearchResponse, error) {
	return &SearchResponse{}, b.hold(ctx)
}
func (b *stub) Batch(ctx context.Context, _ *BatchRequest, grant func(int) int) (*BatchResponse, error) {
	b.got = grant(b.want)
	return &BatchResponse{}, b.hold(ctx)
}
func (b *stub) Append(ctx context.Context, req *AppendRequest) (*AppendResponse, error) {
	return &AppendResponse{IDs: make([]int, len(req.Series))}, b.hold(ctx)
}
func (b *stub) Admin(context.Context, string, []byte) (map[string]any, error) { return nil, nil }
func (b *stub) Info(context.Context) (any, error)                             { return InfoResponse{}, b.shape }
func (b *stub) Stats(context.Context) Object                                  { return Object{{"own", 1}} }
func (b *stub) Health() (int, any)                                            { return 200, "ok" }
func (b *stub) Classify(err error) (int, string) {
	if errors.Is(err, errTeapot) {
		return http.StatusTeapot, "teapots"
	}
	return http.StatusInternalServerError, "errors"
}
func (b *stub) Meters() Meters {
	return Meters{Section: "stub", Counters: b.c, Metrics: []Block{{Rows: b.c.rows}, {Hists: true}},
		Query: Row{Metric: "stub_query_seconds"}, Append: Row{Metric: "stub_append_seconds"}, Stage: Row{Metric: "stub_stage_seconds"}}
}

const searchBody = `{"query":[1,2,3,4]}`

// serve mounts a front over b on a real socket.
func serve(t *testing.T, b Backend, cfg ServeConfig) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(b, cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func post(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// drained waits for the front to hold no admission slot: the handler of a
// request whose client has its answer (or has gone) may still be returning.
func drained(t *testing.T, svc *Service, b *stub) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); svc.lim.Held() != 0 || b.c.Load("in_flight") != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("slots leaked: %d held, in_flight gauge %d", svc.lim.Held(), b.c.Load("in_flight"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControlRejectsOverLimit saturates a 2-slot front with queries
// blocked in the backend, then checks that further requests are rejected 429
// after the queue deadline while the in-flight ones complete once released.
func TestAdmissionControlRejectsOverLimit(t *testing.T) {
	const limit = 2
	b := newStub()
	admitted := make(chan struct{}, limit)
	gate := make(chan struct{})
	b.hold = func(context.Context) error {
		admitted <- struct{}{}
		<-gate
		return nil
	}
	svc, ts := serve(t, b, ServeConfig{MaxInFlight: limit, QueueTimeout: 50 * time.Millisecond})

	statuses := make([]int, limit+4)
	bodies := make([]string, limit+4)
	run := func(from, to int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := from; i < to; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				statuses[i], bodies[i] = post(t, ts.URL+"/search", "application/json", []byte(searchBody))
			}()
		}
		return &wg
	}
	held := run(0, limit)
	for i := 0; i < limit; i++ {
		select {
		case <-admitted:
		case <-time.After(5 * time.Second):
			t.Fatal("slots never filled")
		}
	}
	run(limit, len(statuses)).Wait()
	for i := limit; i < len(statuses); i++ {
		if statuses[i] != http.StatusTooManyRequests || !strings.Contains(bodies[i], "server at capacity") {
			t.Errorf("over-limit request %d: status %d %s, want 429", i, statuses[i], bodies[i])
		}
	}
	close(gate)
	held.Wait()
	for i := 0; i < limit; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, statuses[i])
		}
	}
	if _, metrics := get(t, ts.URL+"/metrics"); !strings.Contains(metrics, "stub_rejected 4\n") {
		t.Errorf("rejected counter not at 4:\n%s", metrics)
	}
	drained(t, svc, b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestQueuedDisconnectCountsCanceled checks that a client hanging up while
// waiting for an admission slot is denied with the client-closed status and
// lands in the canceled counter, not silently dropped from the accounting.
func TestQueuedDisconnectCountsCanceled(t *testing.T) {
	c := newStub().c
	lim := NewLimiter(1, 10*time.Second, c)
	releaseSlot, _, err := lim.Admit(context.Background()) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}
	defer releaseSlot()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	release, status, err := lim.Admit(ctx)
	if release != nil || err == nil || status != StatusClientClosedRequest {
		t.Fatalf("admit of a disconnected queued client: release=%v status=%d err=%v", release != nil, status, err)
	}
	if got := c.Load("canceled"); got != 1 {
		t.Fatalf("canceled counter %d, want 1", got)
	}
	if got := c.Load("queued"); got != 0 {
		t.Fatalf("queued gauge %d after abort, want 0", got)
	}
}

// TestFrontRefusals walks what the front turns away before any backend call,
// in both spellings: each is the same status, moves the same counter and
// gives its slot back.
func TestFrontRefusals(t *testing.T) {
	b := newStub()
	b.hold = func(context.Context) error { t.Error("backend reached"); return nil }
	svc, ts := serve(t, b, ServeConfig{MaxBodyBytes: 128, BodyReadTimeout: 50 * time.Millisecond})
	frame := AppendFrame(nil, &SearchRequest{Query: []float64{1, 2, 3}}) // wrong length
	big := AppendFrame(nil, &SearchRequest{Query: make([]float64, 20)})  // 160 bytes of readings alone
	for _, c := range []struct {
		name, contentType string
		body              []byte
		status            int
	}{
		{"malformed json", "application/json", []byte(`{"query":`), 400},
		{"wrong length json", "application/json", []byte(`{"query":[1,2,3]}`), 400},
		{"wrong length frame", FrameContentType, frame, 400},
		{"malformed frame", FrameContentType, frame[:len(frame)-3], 400},
		{"oversized json", "application/json", []byte(`{"query":[` + strings.Repeat("1,", 80) + `1]}`), 413},
		{"oversized frame", FrameContentType, big, 413},
	} {
		before := b.c.Load("bad_requests")
		if status, body := post(t, ts.URL+"/search", c.contentType, c.body); status != c.status || !strings.Contains(body, `"error"`) {
			t.Errorf("%s: status %d %s, want %d and a JSON error", c.name, status, body, c.status)
		}
		if b.c.Load("bad_requests") != before+1 {
			t.Errorf("%s: bad_requests did not move", c.name)
		}
	}
	if n := b.c.Load("framed_requests"); n != 2 { // the two frames that were read whole
		t.Errorf("framed_requests = %d, want 2", n)
	}

	// A body that stops arriving is cut off at the read deadline with 408.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /search HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 40\r\n\r\n{\"query\":")
	reply, _ := io.ReadAll(conn) // the front closes the connection after a failed read
	if !strings.HasPrefix(string(reply), "HTTP/1.1 408 ") {
		t.Errorf("stalled body: %q, want a 408", reply)
	}

	b.shape = errors.New("no index yet")
	if status, body := post(t, ts.URL+"/search", "application/json", []byte(searchBody)); status != 503 || !strings.Contains(body, "no index yet") {
		t.Errorf("unknown shape: status %d %s, want 503", status, body)
	}
	if status, _ := get(t, ts.URL+"/info"); status != 503 {
		t.Errorf("/info with unknown shape: status %d, want 503", status)
	}
	if n := b.c.Load("errors"); n != 2 {
		t.Errorf("errors = %d after two 503s, want 2", n)
	}
	drained(t, svc, b)
}

// TestClientGone: a client that hangs up mid-query cancels the context the
// backend runs under, and the request is recorded as the 499 it is. The
// front notes the slow-log entry after the handler has released its slot,
// so the test reads the log only once the handler has returned.
func TestClientGone(t *testing.T) {
	b := newStub()
	started := make(chan struct{})
	b.hold = func(ctx context.Context) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	}
	svc := NewService(b, ServeConfig{SlowSample: 1})
	h := svc.Handler()
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		select {
		case returned <- struct{}{}:
		default:
		}
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search/batch", strings.NewReader(`{"queries":[[1,2,3,4]]}`))
	done := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler of the abandoned request never returned")
	}
	drained(t, svc, b)
	if n := b.c.Load("canceled"); n != 1 {
		t.Errorf("canceled = %d, want 1", n)
	}
	if e := svc.SlowLog().Entries(); len(e) != 1 || e[0].Status != StatusClientClosedRequest || e[0].Endpoint != "/search/batch" {
		t.Errorf("slow log %+v, want one 499 on /search/batch", e)
	}
}

// TestBackendErrorClasses: an error the front does not know goes to the
// backend's Classify for its status and counter; a deadline is a 504.
func TestBackendErrorClasses(t *testing.T) {
	b := newStub()
	_, ts := serve(t, b, ServeConfig{})
	for _, c := range []struct {
		err     error
		status  int
		counter string
	}{
		{errTeapot, http.StatusTeapot, "teapots"},
		{fmt.Errorf("scan: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "errors"},
		{errors.New("disk on fire"), http.StatusInternalServerError, "errors"},
	} {
		b.hold = func(context.Context) error { return c.err }
		before := b.c.Load(c.counter)
		if status, body := post(t, ts.URL+"/append", "application/json", []byte(`{"series":[[1,2,3,4]]}`)); status != c.status || !strings.Contains(body, c.err.Error()) {
			t.Errorf("%v: status %d %s, want %d", c.err, status, body, c.status)
		}
		if b.c.Load(c.counter) != before+1 {
			t.Errorf("%v: %s did not move", c.err, c.counter)
		}
	}
	if n := b.c.Load("append_series"); n != 0 {
		t.Errorf("append_series = %d after three failed appends, want 0", n)
	}
}

// TestSlowLogStats pins what a slow-log entry says about the query: a search
// its wire stats and a batch the three-key roll-up, both in their zero shape
// when the backend failed; a request refused before the backend ran has none.
func TestSlowLogStats(t *testing.T) {
	b := newStub()
	svc, ts := serve(t, b, ServeConfig{SlowThreshold: time.Nanosecond})
	batch := []byte(`{"queries":[[1,2,3,4],[4,3,2,1]]}`)
	zero, _ := json.Marshal(climber.Stats{})
	post(t, ts.URL+"/search/batch", "application/json", batch)
	post(t, ts.URL+"/search", "application/json", []byte(`{"k":1}`))
	b.hold = func(context.Context) error { return errTeapot }
	post(t, ts.URL+"/search/batch", "application/json", batch)
	post(t, ts.URL+"/search", "application/json", []byte(searchBody))

	want := []string{`{"queries":2,"steps_executed":0,"truncated":0}`, ``, `{"queries":2,"steps_executed":0,"truncated":0}`, string(zero)}
	// An entry is noted after its handler returns, which the client does not
	// wait for.
	for deadline := time.Now().Add(5 * time.Second); svc.SlowLog().Total() < int64(len(want)) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	entries := svc.SlowLog().Entries()
	if len(entries) != len(want) {
		t.Fatalf("%d slow-log entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		got := ""
		if e.Stats != nil {
			raw, _ := json.Marshal(e.Stats)
			got = string(raw)
		}
		if got != want[i] {
			t.Errorf("entry %d (%s, status %d): stats %s, want %s", i, e.Endpoint, e.Status, got, want[i])
		}
	}
}

// TestBatchGrant: a batch is granted extra workers only out of the slots
// idle right now, and the front returns them when the backend is done.
func TestBatchGrant(t *testing.T) {
	b := newStub()
	b.want = 10
	peak := int64(0)
	b.hold = func(context.Context) error {
		peak = b.c.Load("in_flight")
		return nil
	}
	svc, ts := serve(t, b, ServeConfig{MaxInFlight: 4})
	batch := []byte(`{"queries":[[1,2,3,4]]}`)
	if status, body := post(t, ts.URL+"/search/batch", "application/json", batch); status != 200 {
		t.Fatalf("batch: %d %s", status, body)
	}
	if b.got != 3 || peak != 4 {
		t.Errorf("granted %d extra with %d in flight; want 3 and 4 of 4 slots", b.got, peak)
	}
	drained(t, svc, b)

	// With two slots taken by others, one is left to grant.
	r1, _, _ := svc.lim.Admit(context.Background())
	r2, _, _ := svc.lim.Admit(context.Background())
	post(t, ts.URL+"/search/batch", "application/json", batch)
	if b.got != 1 {
		t.Errorf("granted %d extra with two slots taken, want 1", b.got)
	}
	r1()
	r2()
	drained(t, svc, b)
}

// TestStatsFromRows: GET /stats is the front's section — one key per row in
// declaration order, then the uptime — followed by the backend's sections.
func TestStatsFromRows(t *testing.T) {
	b := newStub()
	_, ts := serve(t, b, ServeConfig{})
	post(t, ts.URL+"/search", "application/json", []byte(searchBody))
	_, body := get(t, ts.URL+"/stats")
	want := `{"stub":{"searches":1,"batches":0,"prefix_searches":0,"appends":0,"append_series":0,"bad_requests":0,` +
		`"framed_requests":0,"rejected":0,"canceled":0,"errors":0,"in_flight":0,"queued":0,"teapots":0,"uptime_seconds":`
	if !strings.HasPrefix(body, want) || !strings.HasSuffix(body, `},"own":1}`+"\n") {
		t.Errorf("/stats = %s", body)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Errorf("/stats is not JSON: %v", err)
	}
}
