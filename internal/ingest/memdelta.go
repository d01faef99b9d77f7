package ingest

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/storage"
)

// MemDelta is the in-memory index of appended-but-not-yet-compacted
// records. Records are stored under the (partition, cluster) destination
// the skeleton routed them to, so a search prunes the delta exactly as it
// prunes the on-disk index: only records whose destination the query plan
// covers are compared. Each destination is one run of the partition file's
// record layout, encoded by storage.AppendRecord as a drain encodes the same
// records, so the executor ranks it with the partition scan. It implements
// core.DeltaSource.
//
// MemDelta is safe for concurrent use: searches scan it (read lock) while
// the ingester adds records and the compactor drains it (write lock).
type MemDelta struct {
	mu sync.RWMutex
	// byPartition holds each destination partition's runs by cluster.
	byPartition map[int]map[storage.ClusterID]deltaRun
	seriesLen   int // of every record; set by the first Add
	records     int
	oldest      time.Time // arrival of the oldest resident record
}

// deltaRun is the records routed to one cluster of a partition, in arrival
// (ascending ID) order: recs holds them as a partition file does and sums
// their summaries.
type deltaRun struct{ recs, sums []byte }

// NewMemDelta returns an empty delta index.
func NewMemDelta() *MemDelta {
	return &MemDelta{byPartition: make(map[int]map[storage.ClusterID]deltaRun)}
}

// Add encodes routed records into their runs. Every record must have the
// length of the first the delta held and readings finite in float32, as
// Append checks before it logs a series; the first record that fails stops
// the Add with an error, the records before it added.
func (d *MemDelta) Add(recs []core.Routed) error {
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.records == 0 {
		d.oldest = now
	}
	for _, r := range recs {
		if d.seriesLen == 0 {
			d.seriesLen = len(r.Values)
		}
		if len(r.Values) != d.seriesLen {
			return fmt.Errorf("ingest: record %d has length %d, the delta holds %d", r.ID, len(r.Values), d.seriesLen)
		}
		runs := d.byPartition[r.Route.Partition]
		if runs == nil {
			runs = make(map[storage.ClusterID]deltaRun)
			d.byPartition[r.Route.Partition] = runs
		}
		run := runs[r.Route.Cluster]
		var err error
		if run.recs, run.sums, err = storage.AppendRecord(run.recs, run.sums, r.ID, r.Values); err != nil {
			return err
		}
		runs[r.Route.Cluster] = run
		d.records++
	}
	return nil
}

// ScanRuns implements core.DeltaSource: it passes fn the run of every
// cluster of partition pid, in no set order. Both slices are valid only
// during the callback: the next Add may move them.
func (d *MemDelta) ScanRuns(pid int, fn func(c storage.ClusterID, recs, sums []byte) error) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for cid, run := range d.byPartition[pid] {
		if err := fn(cid, run.recs, run.sums); err != nil {
			return err
		}
	}
	return nil
}

// ScanPartition streams the records routed to partition pid, narrowed to
// the listed clusters (nil means all), decoded into a fresh values slice per
// record. The engine no longer calls it — a search ranks the runs
// themselves (ScanRuns); it is the decoded view the benchmark harness times.
func (d *MemDelta) ScanPartition(pid int, clusters map[storage.ClusterID]struct{}, fn func(id int, values []float64) error) error {
	return d.ScanRuns(pid, func(c storage.ClusterID, recs, _ []byte) error {
		if _, want := clusters[c]; clusters != nil && !want {
			return nil
		}
		for off := 0; off < len(recs); off += storage.RecordBytes(d.seriesLen) {
			vals := make([]float64, d.seriesLen)
			if err := fn(storage.DecodeRecord(recs[off:], vals), vals); err != nil {
				return err
			}
		}
		return nil
	})
}

// Len returns the number of resident records.
func (d *MemDelta) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.records
}

// Bytes returns the bytes the resident records occupy: their record bytes
// and summaries, what a partition file spends on them.
func (d *MemDelta) Bytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(d.records * (storage.RecordBytes(d.seriesLen) + storage.SummaryBytes(d.seriesLen)))
}

// OldestAge returns how long the oldest resident record has been waiting
// for compaction; zero when the delta is empty.
func (d *MemDelta) OldestAge() time.Duration {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.records == 0 {
		return 0
	}
	return time.Since(d.oldest)
}

// Snapshot returns every resident record in ascending ID order, ready for
// the compactor to land in partition files. The values are decoded from the
// runs: the float32-rounded readings Append handed over, exactly. The delta
// keeps serving reads unchanged: the compactor publishes the view holding
// the snapshot's records in its files with a fresh delta, and the views
// before it keep this one.
func (d *MemDelta) Snapshot() []core.Routed {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]core.Routed, 0, d.records)
	recBytes := storage.RecordBytes(d.seriesLen)
	for pid, runs := range d.byPartition {
		for cid, run := range runs {
			for off := 0; off < len(run.recs); off += recBytes {
				vals := make([]float64, d.seriesLen)
				out = append(out, core.Routed{
					ID:     storage.DecodeRecord(run.recs[off:], vals),
					Route:  cluster.Route{Partition: pid, Cluster: cid},
					Values: vals,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
