// Package obs is the repository's stdlib-only tracing subsystem: a
// per-query span tree carried in context.Context, a traceparent-style
// header for nesting router traces over per-shard server traces, and a
// ring-buffered slow-query log.
//
// The design goal is "free when off": every method on *Trace and *Span
// is a no-op on a nil receiver, and SpanFromContext on an untraced
// context is a single Value lookup returning nil. Code on the hot
// search path therefore calls StartSpan/End unconditionally — no
// if-tracing-enabled branches — and pays one pointer test per call
// when tracing is off. When tracing is on, spans record a name, a
// monotonic start/end offset relative to the trace root, and a small
// set of integer attributes and string labels; children append under a
// trace-wide mutex so the router's concurrent scatter goroutines can open
// sibling spans safely.
//
// Serialization (Span.Data) orders children deterministically by name
// and the "step"/"partition" attributes rather than by completion
// time, so an explain span tree is structurally byte-stable across
// runs even when stages inside it raced.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is one query's span tree plus its wire identity. A Trace is
// created at the edge (server handler, router handler, or CLI) and
// carried down the call stack via ContextWithSpan; interior code never
// constructs one. All methods are safe on a nil *Trace.
type Trace struct {
	mu      sync.Mutex
	id      string // 32 hex chars, the wire trace-id
	started time.Time
	root    *Span
}

// Span is one timed stage of a trace. Spans form a tree under the
// trace root; Start/End offsets are monotonic durations relative to
// the trace start so serialized trees need no wall-clock arithmetic.
// All methods are safe on a nil *Span.
type Span struct {
	tr       *Trace
	name     string
	start    time.Duration
	end      time.Duration
	ended    bool
	attrs    []attr
	labels   []label
	children []*Span
	// graft, when set, is a foreign subtree (a shard's serialized
	// span tree) re-emitted verbatim by Data in place of this span.
	graft *SpanData
}

// attr is an integer span attribute (bytes loaded, records scanned, ...).
type attr struct {
	key string
	val int64
}

// label is a string span attribute (shard id, budget-exhaustion reason, ...).
type label struct {
	key string
	val string
}

// NewTrace starts a trace whose root span carries name. If traceID is
// a well-formed 32-hex-char id (typically parsed from an incoming
// traceparent header) it is adopted so the two processes' logs share
// one id; otherwise a fresh random id is generated.
func NewTrace(name, traceID string) *Trace {
	if !validTraceID(traceID) {
		traceID = randomTraceID()
	}
	t := &Trace{id: traceID, started: time.Now()}
	t.root = &Span{tr: t, name: name}
	return t
}

// ID returns the 32-hex-char trace id, or "" on a nil trace.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the trace's root span, or nil on a nil trace.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Unended counts the spans of t opened and not ended, the root included and
// grafted subtrees aside. A span left open is a code path that skipped its
// End: it serialises with a duration that keeps growing and skews the stage
// histograms. A service checks the count when it finishes a request's
// trace, and 0 is the only right answer. Returns 0 on a nil trace.
func (t *Trace) Unended() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var count func(s *Span) int64
	count = func(s *Span) (n int64) {
		if s.graft == nil && !s.ended {
			n++
		}
		for _, c := range s.children {
			n += count(c)
		}
		return n
	}
	return count(t.root)
}

// now returns the monotonic offset since the trace started.
func (t *Trace) now() time.Duration { return time.Since(t.started) }

// Trace returns the trace this span belongs to, or nil.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// StartChild opens a child span under s. Safe to call from concurrent
// goroutines; the child's position among its siblings is fixed at
// serialization time, not append time. Returns nil when s is nil, so
// untraced paths chain through without branching.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name}
	s.tr.mu.Lock()
	c.start = s.tr.now()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End closes the span. The first End wins; later calls (for example a
// deferred End after an explicit one on the happy path) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = s.tr.now()
	}
	s.tr.mu.Unlock()
}

// SetAttr records an integer attribute on the span, overwriting any
// prior value for key.
func (s *Span) SetAttr(key string, val int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val = val
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, val})
}

// SetLabel records a string attribute on the span, overwriting any
// prior value for key.
func (s *Span) SetLabel(key, val string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.labels {
		if s.labels[i].key == key {
			s.labels[i].val = val
			return
		}
	}
	s.labels = append(s.labels, label{key, val})
}

// AddChildData grafts an externally produced span tree (typically a
// shard's explain response, deserialized from the wire) under s. The
// graft is stored as-is; Data re-emits it unchanged below s.
func (s *Span) AddChildData(d *SpanData) {
	if s == nil || d == nil {
		return
	}
	c := &Span{tr: s.tr, name: d.Name, graft: d}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
}

// SpanData is the wire/JSON form of a span tree. Durations are
// nanoseconds; Start is the offset from the owning trace's root.
// Attrs and Labels marshal as JSON objects, which encoding/json
// renders with sorted keys, so a SpanData value has exactly one
// serialized form.
type SpanData struct {
	Name       string            `json:"name"`
	StartNS    int64             `json:"start_ns"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]int64  `json:"attrs,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	Children   []*SpanData       `json:"children,omitempty"`
}

// Data snapshots the span subtree rooted at s. Unended spans (a stage
// still in flight when an explain response is assembled) report the
// duration up to now. Children are ordered by name, then the "step",
// "partition", "query" and "shard" attributes, then start — a deterministic
// structure even when the spans were opened by racing goroutines.
// Returns nil on a nil span.
func (s *Span) Data() *SpanData {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.dataLocked()
}

// dataLocked builds the SpanData tree; caller holds s.tr.mu.
func (s *Span) dataLocked() *SpanData {
	if s.graft != nil {
		return s.graft
	}
	end := s.end
	if !s.ended {
		end = s.tr.now()
	}
	d := &SpanData{
		Name:       s.name,
		StartNS:    s.start.Nanoseconds(),
		DurationNS: (end - s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			d.Attrs[a.key] = a.val
		}
	}
	if len(s.labels) > 0 {
		d.Labels = make(map[string]string, len(s.labels))
		for _, l := range s.labels {
			d.Labels[l.key] = l.val
		}
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.dataLocked())
	}
	sort.SliceStable(d.Children, func(i, j int) bool {
		a, b := d.Children[i], d.Children[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		for _, key := range []string{"step", "partition", "query", "shard"} {
			if va, vb := a.Attrs[key], b.Attrs[key]; va != vb {
				return va < vb
			}
		}
		return a.StartNS < b.StartNS
	})
	return d
}

// StageNanos sums the durations of s's direct children by span name —
// the per-stage figures the Prometheus stage histograms observe.
// Returns nil on a nil span.
func (s *Span) StageNanos() map[string]int64 {
	d := s.Data()
	if d == nil {
		return nil
	}
	out := make(map[string]int64, len(d.Children))
	for _, c := range d.Children {
		out[c.Name] += c.DurationNS
	}
	return out
}

// ctxKey is the context key type for the active span.
type ctxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
// Passing a nil span returns ctx unchanged, so callers can thread an
// optional trace without branching.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span, or nil when ctx is
// untraced. This is the single per-query cost of tracing-off paths.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan opens a child of the context's active span and returns a
// context in which the child is active, plus the child itself. On an
// untraced context it returns (ctx, nil) without allocating. The
// caller must End the returned span on every return path; a span it
// leaves open counts in Trace.Unended.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	c := parent.StartChild(name)
	return context.WithValue(ctx, ctxKey{}, c), c
}

// TraceHeader is the HTTP header carrying trace identity between the
// router and shard servers. The value follows the W3C traceparent
// shape: version "00", a 32-hex trace-id, a 16-hex parent span-id,
// and a flags byte whose low bit means "sampled".
const TraceHeader = "Traceparent"

// FormatTraceparent renders a traceparent header value for traceID.
// The parent span-id is synthesized from the trace id (this tracer
// identifies spans by tree position, not by id); sampled sets the
// flags low bit, telling the downstream server to trace even without
// an explain flag in the body.
func FormatTraceparent(traceID string, sampled bool) string {
	if !validTraceID(traceID) {
		traceID = randomTraceID()
	}
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + traceID[:16] + "-" + flags
}

// ParseTraceparent extracts (traceID, sampled) from a traceparent
// header value. ok is false on any malformed input; callers should
// then fall back to a fresh trace id.
func ParseTraceparent(v string) (traceID string, sampled bool, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) != 4 || parts[0] != "00" || !validTraceID(parts[1]) || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", false, false
	}
	if !isHex(parts[2]) || !isHex(parts[3]) {
		return "", false, false
	}
	return parts[1], parts[3] == "01", true
}

// validTraceID reports whether s is 32 lowercase hex chars and not
// all-zero (the traceparent spec's invalid id).
func validTraceID(s string) bool {
	if len(s) != 32 || !isHex(s) {
		return false
	}
	return strings.Trim(s, "0") != ""
}

// isHex reports whether s is entirely lowercase hex digits.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// randomTraceID generates a fresh 32-hex-char trace id.
func randomTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a timestamp-derived id keeps tracing usable.
		return fmt.Sprintf("%032x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
