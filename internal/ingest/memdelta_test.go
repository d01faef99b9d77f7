package ingest

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/storage"
)

// The delta holds each destination as one run of the partition file's
// layout: the run of a cluster is exactly what storage.AppendRecord makes of
// its records in arrival order, each cluster has one run, the
// decoded view and the snapshot give back the float32-rounded values bit for
// bit, and Bytes counts the record and summary bytes held.
func TestMemDeltaHoldsPartitionRuns(t *testing.T) {
	series := freshSeries(40)
	routes := []cluster.Route{{Partition: 2, Cluster: 9}, {Partition: 2, Cluster: 3}, {Partition: 5, Cluster: 0}}
	recs := make([]core.Routed, len(series))
	want := map[cluster.Route][2][]byte{}
	for i, s := range series {
		r := routes[i%len(routes)]
		recs[i] = core.Routed{ID: 100 + i, Route: r, Values: s}
		run := want[r]
		var err error
		if run[0], run[1], err = storage.AppendRecord(run[0], run[1], 100+i, s); err != nil {
			t.Fatal(err)
		}
		want[r] = run
	}
	d := NewMemDelta()
	if err := d.Add(recs[:25]); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(recs[25:]); err != nil {
		t.Fatal(err)
	}

	for pid, clusters := range map[int][]storage.ClusterID{2: {3, 9}, 5: {0}} {
		// A run is known by its first record: each record is in one run.
		got := map[cluster.Route]bool{}
		err := d.ScanRuns(pid, func(_ storage.ClusterID, run, sums []byte) error {
			r := recs[binary.LittleEndian.Uint64(run)-100].Route
			if w := want[r]; got[r] || r.Partition != pid || !bytes.Equal(run, w[0]) || !bytes.Equal(sums, w[1]) {
				t.Fatalf("partition %d: the run of %+v is not the encoder's bytes", pid, r)
			}
			got[r] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(clusters) {
			t.Fatalf("partition %d: %d runs, want %d", pid, len(got), len(clusters))
		}
	}
	only := 0
	if err := d.ScanRuns(2, func(c storage.ClusterID, recs, _ []byte) error {
		if c == 9 {
			only += len(recs) / storage.RecordBytes(64)
		}
		return nil
	}); err != nil || only != 14 {
		t.Fatalf("cluster 9 of partition 2 streams %d records (%v), want 14", only, err)
	}

	rounded := func(s []float64) []float64 {
		out := make([]float64, len(s))
		for i, v := range s {
			out[i] = float64(float32(v))
		}
		return out
	}
	snap := d.Snapshot()
	if len(snap) != len(recs) {
		t.Fatalf("snapshot holds %d records, want %d", len(snap), len(recs))
	}
	for i, r := range snap {
		if r.ID != recs[i].ID || r.Route != recs[i].Route || !reflect.DeepEqual(r.Values, rounded(recs[i].Values)) {
			t.Fatalf("snapshot record %d: %d at %+v, want %d at %+v, values rounded to float32", i, r.ID, r.Route, recs[i].ID, recs[i].Route)
		}
	}
	decoded := map[int][]float64{}
	if err := d.ScanPartition(2, nil, func(id int, values []float64) error {
		decoded[id] = values
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if got, ok := decoded[r.ID]; ok != (r.Route.Partition == 2) || ok && !reflect.DeepEqual(got, rounded(r.Values)) {
			t.Fatalf("decoded view of record %d: %v, %v", r.ID, ok, got)
		}
	}
	if got, want := d.Bytes(), int64(len(recs)*(storage.RecordBytes(64)+storage.SummaryBytes(64))); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

// Add refuses a record of another length than the delta holds and one with
// a reading not finite in float32, naming it.
func TestMemDeltaRefusesWhatItCannotEncode(t *testing.T) {
	d := NewMemDelta()
	if err := d.Add([]core.Routed{{ID: 1, Values: make([]float64, 64)}}); err != nil {
		t.Fatal(err)
	}
	short := core.Routed{ID: 2, Values: make([]float64, 63)}
	huge := core.Routed{ID: 3, Values: slices.Repeat([]float64{math.MaxFloat64}, 64)}
	for _, r := range []core.Routed{short, huge} {
		if err := d.Add([]core.Routed{r}); err == nil {
			t.Fatalf("record %d accepted", r.ID)
		}
	}
	if d.Len() != 1 {
		t.Fatalf("the delta holds %d records after two refusals, want 1", d.Len())
	}
}
