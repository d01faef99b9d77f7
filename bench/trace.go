package main

import (
	"sort"

	"climber/internal/obs"
)

// The traced phase sets "explain": true on every request, so each answer
// carries the span tree the wire contract already returns; the bench adds
// its own span around the HTTP call (tracedSample.client). Shapes:
//
//	single node:  search > plan | scan > partition | widen | delta | merge
//	router:       search > scatter > shard > (that shard's tree) ; merge
//
// A span's self time is its duration minus the part of its interval its
// children cover; children may overlap (partition scans run in parallel),
// so the covered part is the union of their intervals.

// selfNS is d's duration minus the union of its children's intervals.
func selfNS(d *obs.SpanData) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(d.Children))
	for _, c := range d.Children {
		lo, hi := max(c.StartNS, d.StartNS), min(c.StartNS+c.DurationNS, d.StartNS+d.DurationNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return d.DurationNS - covered
}

// spanSummary is one row of the output document's span table: a span path
// with its per-request self and total time.
type spanSummary struct {
	Name       string  `json:"name"` // path from the root, "search>scan>partition"
	Count      int     `json:"requests"`
	SelfP50US  float64 `json:"self_p50_us"`
	TotalP50US float64 `json:"total_p50_us"`
}

// A grafted shard tree keeps its own time base (offsets relative to the
// shard's trace start), so self time is only ever computed between a span
// and its own children, never across the graft.

type pathTimes struct{ self, total []float64 }

// walk adds, per path, this request's summed self and total microseconds.
func walk(d *obs.SpanData, path string, acc map[string]*[2]int64) {
	if path != "" {
		path += ">"
	}
	path += d.Name
	a := acc[path]
	if a == nil {
		a = &[2]int64{}
		acc[path] = a
	}
	self := d.DurationNS
	if !isGraftParent(d) {
		self = selfNS(d)
	}
	a[0] += self
	a[1] += d.DurationNS
	for _, c := range d.Children {
		walk(c, path, acc)
	}
}

// isGraftParent reports whether d is a router "shard" span: its child is
// the shard's own tree on the shard's clock, so interval arithmetic
// between them is meaningless.
func isGraftParent(d *obs.SpanData) bool { return d.Name == "shard" }

// summarizeSpans builds the span table over the traced /search requests.
func summarizeSpans(traced []tracedSample) []spanSummary {
	by := map[string]*pathTimes{}
	for _, t := range traced {
		if t.kind != opSearch {
			continue
		}
		acc := map[string]*[2]int64{}
		walk(t.trace, "", acc)
		acc["client"] = &[2]int64{int64(t.client) - t.trace.DurationNS, int64(t.client)}
		for path, a := range acc {
			pt := by[path]
			if pt == nil {
				pt = &pathTimes{}
				by[path] = pt
			}
			pt.self = append(pt.self, float64(a[0])/1e3)
			pt.total = append(pt.total, float64(a[1])/1e3)
		}
	}
	out := make([]spanSummary, 0, len(by))
	for path, pt := range by {
		out = append(out, spanSummary{Name: path, Count: len(pt.self),
			SelfP50US: median(pt.self), TotalP50US: median(pt.total)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// serverRoots returns the root spans of the server-side query trees in one
// answer: the answer's own root on a single node, each shard's grafted
// root behind a router.
func serverRoots(root *obs.SpanData) []*obs.SpanData {
	var roots []*obs.SpanData
	for _, c := range root.Children {
		if c.Name != "scatter" {
			continue
		}
		for _, sh := range c.Children {
			if sh.Name == "shard" {
				roots = append(roots, sh.Children...)
			}
		}
	}
	if roots == nil {
		return []*obs.SpanData{root}
	}
	return roots
}

// traceStats is what the per-layer metrics read from the traced phase,
// over /search requests; every slice is in microseconds.
type traceStats struct {
	// core stages: total time of the stage's spans per server-side query.
	stage map[string][]float64
	// httpOverhead: client round trip minus the entry point's root span.
	httpOverhead []float64
	// router-only views, per request (hopOverhead per shard span).
	routerSelf, slowestShard, skew, hopOverhead []float64
}

var coreStages = []string{"plan", "scan", "widen", "delta", "merge"}

func analyzeTraces(traced []tracedSample) traceStats {
	ts := traceStats{stage: map[string][]float64{}}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, t := range traced {
		if t.kind != opSearch {
			continue
		}
		ts.httpOverhead = append(ts.httpOverhead, us(int64(t.client)-t.trace.DurationNS))
		for _, root := range serverRoots(t.trace) {
			sum := map[string]int64{}
			deltaWork := false
			for _, c := range root.Children {
				sum[c.Name] += c.DurationNS
				deltaWork = deltaWork || (c.Name == "delta" && c.Attrs["records"] > 0)
			}
			for _, st := range coreStages {
				// Every query opens a delta span; one that scanned no
				// record is ~1 us of the tracer's own time, not delta
				// work, so only spans that scanned count.
				if st == "delta" && !deltaWork {
					continue
				}
				ts.stage[st] = append(ts.stage[st], us(sum[st]))
			}
		}
		var shards []*obs.SpanData
		for _, c := range t.trace.Children {
			if c.Name == "scatter" {
				shards = append(shards, c.Children...)
			}
		}
		if len(shards) == 0 {
			continue
		}
		// The router's own time: its root minus the interval its shard
		// spans cover (scatter and shard spans share the router's clock).
		cover := &obs.SpanData{StartNS: t.trace.StartNS, DurationNS: t.trace.DurationNS, Children: shards}
		ts.routerSelf = append(ts.routerSelf, us(selfNS(cover)))
		slow, fast := int64(0), int64(1<<62)
		for _, sh := range shards {
			slow, fast = max(slow, sh.DurationNS), min(fast, sh.DurationNS)
			for _, own := range sh.Children {
				ts.hopOverhead = append(ts.hopOverhead, us(sh.DurationNS-own.DurationNS))
			}
		}
		ts.slowestShard = append(ts.slowestShard, us(slow))
		ts.skew = append(ts.skew, ratio(float64(slow), float64(fast)))
	}
	return ts
}
