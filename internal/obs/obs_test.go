package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every trace/span operation must be a no-op on nil receivers —
	// this is the tracing-off hot path.
	var tr *Trace
	var sp *Span
	if tr.ID() != "" || tr.Root() != nil {
		t.Fatal("nil trace not inert")
	}
	sp.End()
	sp.SetAttr("x", 1)
	sp.SetLabel("y", "z")
	sp.AddChildData(&SpanData{Name: "n"})
	if sp.StartChild("c") != nil || sp.Data() != nil || sp.StageNanos() != nil {
		t.Fatal("nil span not inert")
	}
	ctx := context.Background()
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("ContextWithSpan(nil) should return ctx unchanged")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("untraced context returned a span")
	}
	ctx2, c := StartSpan(ctx, "stage")
	if ctx2 != ctx || c != nil {
		t.Fatal("StartSpan on untraced context should be free")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTrace("query", "")
	root := tr.Root()
	ctx := ContextWithSpan(context.Background(), root)

	ctx2, plan := StartSpan(ctx, "plan")
	if SpanFromContext(ctx2) != plan {
		t.Fatal("StartSpan did not activate the child")
	}
	plan.SetAttr("steps", 3)
	plan.End()

	scan := root.StartChild("scan")
	for i := 2; i >= 0; i-- { // reverse order: serialization must sort
		st := scan.StartChild("step")
		st.SetAttr("step", int64(i))
		st.SetAttr("partition", int64(10+i))
		st.End()
	}
	scan.End()
	root.End()

	d := root.Data()
	if d.Name != "query" || len(d.Children) != 2 {
		t.Fatalf("root data: %+v", d)
	}
	// Children sorted by name: plan < scan.
	if d.Children[0].Name != "plan" || d.Children[1].Name != "scan" {
		t.Fatalf("child order: %s, %s", d.Children[0].Name, d.Children[1].Name)
	}
	if d.Children[0].Attrs["steps"] != 3 {
		t.Fatalf("plan attrs: %+v", d.Children[0].Attrs)
	}
	steps := d.Children[1].Children
	if len(steps) != 3 {
		t.Fatalf("want 3 steps, got %d", len(steps))
	}
	for i, st := range steps {
		if st.Attrs["step"] != int64(i) {
			t.Fatalf("steps not sorted by step attr: %+v", steps)
		}
	}
}

func TestDataDeterministicUnderConcurrency(t *testing.T) {
	// Concurrent sibling creation must serialize to the same structure
	// regardless of append order. Timings differ between runs, so the
	// comparison zeroes them — that is exactly what the explain
	// byte-stability test does at the API layer.
	build := func() *SpanData {
		tr := NewTrace("q", "")
		scan := tr.Root().StartChild("scan")
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st := scan.StartChild("step")
				st.SetAttr("step", int64(i))
				st.End()
			}(i)
		}
		wg.Wait()
		scan.End()
		tr.Root().End()
		return tr.Root().Data()
	}
	var zero func(*SpanData)
	zero = func(d *SpanData) {
		d.StartNS, d.DurationNS = 0, 0
		for _, c := range d.Children {
			zero(c)
		}
	}
	a, b := build(), build()
	zero(a)
	zero(b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("nondeterministic serialization:\n%s\n%s", ja, jb)
	}
}

func TestGraftedChild(t *testing.T) {
	tr := NewTrace("router", "")
	sh := tr.Root().StartChild("shard")
	sh.SetLabel("shard", "s0")
	sh.AddChildData(&SpanData{Name: "query", DurationNS: 42,
		Children: []*SpanData{{Name: "scan", DurationNS: 40}}})
	sh.End()
	tr.Root().End()
	d := tr.Root().Data()
	if len(d.Children) != 1 || len(d.Children[0].Children) != 1 {
		t.Fatalf("graft lost: %+v", d)
	}
	g := d.Children[0].Children[0]
	if g.Name != "query" || g.DurationNS != 42 || g.Children[0].Name != "scan" {
		t.Fatalf("graft mangled: %+v", g)
	}
}

// Unended counts every span opened and not ended, at any depth and the root
// included, and never a grafted subtree, which another process ended.
func TestUnendedCountsSpansLeftOpen(t *testing.T) {
	var nilTrace *Trace
	if nilTrace.Unended() != 0 {
		t.Fatal("nil trace reports unended spans")
	}
	tr := NewTrace("search", "")
	scan := tr.Root().StartChild("scan")
	part := scan.StartChild("partition")
	scan.StartChild("partition").End()
	scan.AddChildData(&SpanData{Name: "query"})
	if got := tr.Unended(); got != 3 {
		t.Fatalf("root, scan and one partition open: Unended = %d, want 3", got)
	}
	part.End()
	tr.Root().End()
	if got := tr.Unended(); got != 1 {
		t.Fatalf("scan left open: Unended = %d, want 1", got)
	}
	scan.End()
	if got := tr.Unended(); got != 0 {
		t.Fatalf("every span ended: Unended = %d, want 0", got)
	}
}

func TestStageNanos(t *testing.T) {
	tr := NewTrace("q", "")
	a := tr.Root().StartChild("scan")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := tr.Root().StartChild("merge")
	b.End()
	tr.Root().End()
	st := tr.Root().StageNanos()
	if st["scan"] <= 0 {
		t.Fatalf("scan stage duration not recorded: %v", st)
	}
	if _, ok := st["merge"]; !ok {
		t.Fatalf("merge stage missing: %v", st)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTrace("q", "")
	h := FormatTraceparent(tr.ID(), true)
	id, sampled, ok := ParseTraceparent(h)
	if !ok || id != tr.ID() || !sampled {
		t.Fatalf("round trip failed: %q -> (%q, %v, %v)", h, id, sampled, ok)
	}
	h = FormatTraceparent(tr.ID(), false)
	if _, sampled, ok = ParseTraceparent(h); !ok || sampled {
		t.Fatalf("unsampled flag lost: %q", h)
	}
	// Adoption: a trace created with a propagated id keeps it.
	tr2 := NewTrace("q", id)
	if tr2.ID() != id {
		t.Fatalf("trace id not adopted: %q != %q", tr2.ID(), id)
	}
	for _, bad := range []string{
		"", "garbage", "00-short-span-01",
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero id
		"99-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad version
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033zz-01", // bad hex
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("accepted malformed traceparent %q", bad)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := NewTrace("q", "")
	sp := tr.Root().StartChild("stage")
	sp.End()
	d1 := sp.Data().DurationNS
	time.Sleep(2 * time.Millisecond)
	sp.End() // second End must not extend the span
	if d2 := sp.Data().DurationNS; d2 != d1 {
		t.Fatalf("End not idempotent: %d != %d", d2, d1)
	}
}
