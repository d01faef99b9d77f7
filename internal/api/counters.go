package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
)

// Row declares one counter or gauge of a service, once: the key that names
// it in GET /stats (and to Counters.Add), its GET /metrics sample name, help
// text and kind. Both expositions are rendered from the rows, so a number
// cannot appear in one and be forgotten in the other.
type Row struct {
	// Key names the row in /stats and identifies it to Counters.Add.
	Key string
	// Metric is the /metrics sample name; empty keeps the row out of /metrics.
	Metric string
	// Help is the /metrics HELP text.
	Help string
	// Gauge renders TYPE gauge rather than counter.
	Gauge bool
	// MetricOnly keeps the row out of /stats.
	MetricOnly bool
	// Value, when set, computes the number at render time; otherwise the row
	// is a stored cell moved by Counters.Add.
	Value func() int64
}

// Counters holds the numbers behind a service's rows.
type Counters struct {
	rows  []Row
	cells map[string]*atomic.Int64
}

// NewCounters builds the cells for the given row groups; their concatenation
// is the key order of the /stats section.
func NewCounters(groups ...[]Row) *Counters {
	c := &Counters{cells: make(map[string]*atomic.Int64)}
	for _, g := range groups {
		for _, row := range g {
			c.rows = append(c.rows, row)
			c.cells[row.Key] = new(atomic.Int64)
		}
	}
	return c
}

// Add moves the row named key by n. A key no row declares is dropped: a
// service shows, and therefore counts, only what its table lists.
func (c *Counters) Add(key string, n int64) {
	if cell := c.cells[key]; cell != nil {
		cell.Add(n)
	}
}

// Bind makes the row named key a computed one (see Row.Value).
func (c *Counters) Bind(key string, value func() int64) {
	for i := range c.rows {
		if c.rows[i].Key == key {
			c.rows[i].Value = value
		}
	}
}

// Load reads the row named key; 0 when no row declares it.
func (c *Counters) Load(key string) int64 {
	for _, row := range c.rows {
		if row.Key == key {
			if row.Value != nil {
				return row.Value()
			}
			return c.cells[key].Load()
		}
	}
	return 0
}

// stats is the /stats section: every row that is not MetricOnly, in
// declaration order.
func (c *Counters) stats() Object {
	out := make(Object, 0, len(c.rows)+1)
	for _, row := range c.rows {
		if !row.MetricOnly {
			out = append(out, Member{row.Key, c.Load(row.Key)})
		}
	}
	return out
}

// render writes the /metrics lines of rows: HELP, TYPE and one sample each.
func (c *Counters) render(w *strings.Builder, rows []Row) {
	for _, row := range rows {
		if row.Metric == "" {
			continue
		}
		kind := "counter"
		if row.Gauge {
			kind = "gauge"
		}
		WriteSample(w, row.Metric, row.Help, kind, c.Load(row.Key))
	}
}

// WriteSample writes one unlabelled /metrics sample under its HELP and TYPE
// lines; backends use it for the numbers of their Own blocks.
func WriteSample(w *strings.Builder, name, help, kind string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
}

// Block is one stretch of GET /metrics; exactly one field is set. A
// service's Meters.Metrics lists its blocks in exposition order.
type Block struct {
	// Rows are counters and gauges of the service's table.
	Rows []Row
	// Hists stands for the front's own histograms: query latency, append
	// latency and the per-stage latencies of traced queries.
	Hists bool
	// Own writes lines only the backend knows (build identity, cache and
	// ingestion gauges, per-shard families).
	Own func(ctx context.Context, w *strings.Builder)
}

// Meters is everything a backend declares about the numbers its service
// shows: the counter table and where each part of it sits in the two
// expositions. The front renders from it and holds no name of its own.
type Meters struct {
	// Section is the key of the front's counter object in GET /stats.
	Section string
	// Counters is the table; its row order is the /stats key order. The
	// front moves the rows of the shared request path, the backend its own.
	Counters *Counters
	// Metrics is GET /metrics, block by block.
	Metrics []Block
	// Query, Append and Stage name the front's histograms (Metric and Help);
	// Stages are the root-span children the Stage histogram is labelled by.
	Query, Append, Stage Row
	Stages               []string
}

// Member is one key of an Object.
type Member struct {
	Key   string
	Value any
}

// Object is a JSON object whose keys keep their order — GET /stats is
// assembled from the front's section and the backend's, and clients have
// seen one order.
type Object []Member

// MarshalJSON implements json.Marshaler.
func (o Object) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, m := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		key, _ := json.Marshal(m.Key)
		val, err := json.Marshal(m.Value)
		if err != nil {
			return nil, err
		}
		b.Write(key)
		b.WriteByte(':')
		b.Write(val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}
