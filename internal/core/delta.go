package core

import (
	"context"

	"climber/internal/obs"
	"climber/internal/storage"
)

// DeltaSource is the read interface of an in-memory delta index holding
// records appended but not yet compacted into partition files (see
// internal/ingest). Implementations must be safe for concurrent use with
// inserts: every search ranks delta records while writers add them.
type DeltaSource interface {
	// ScanRuns streams the delta records routed to partition pid, one run
	// per cluster, with the cluster's ID, in the layout of
	// storage.Partition.ScanClusterRuns, whose lifetime rules both slices
	// obey.
	ScanRuns(pid int, fn func(c storage.ClusterID, recs, sums []byte) error) error
	// Len returns the number of records currently held.
	Len() int
}

// Delta returns the current generation's delta source, or nil.
func (ix *Index) Delta() DeltaSource { return ix.gen.Load().delta }

// rankDelta ranks the delta runs of partition pid whose clusters f admits
// into the query's one top-k — a step's delta records, right after its
// partition clusters, so file and delta records rank together. The runs are
// in the partition file's layout and the same scan ranks them, so a record
// has the same distance in the delta as in the file a drain moves it to. No
// view holds a record both in its files and in its delta (a drain publishes
// the files it wrote with a fresh delta), so no record is ranked twice.
//
// It returns the records it ranked, charged to DeltaScanned here and with
// the step's own to RecordsScanned, and the subset its summary filter
// skipped; they charge no partition load. The scan, with its scratch, is
// allocated once per query, by the first step that finds the delta
// non-empty (scanStep calls rankDelta only then): the callback handed to the
// DeltaSource escapes, and a step's own scan, which it does not capture,
// stays off the heap. A step that ranked delta records gets a "delta" child
// of its partition span with the two counts.
func (e *executor) rankDelta(ctx context.Context, pid int, f clusterFilter, ssp *obs.Span) (scanned, pruned int, err error) {
	if e.deltaScan == nil {
		e.deltaScan = &stepScan{e: e, top: e.top, recBytes: storage.RecordBytes(e.gen.Parts.SeriesLen)}
	}
	sc := e.deltaScan
	scanned, pruned = sc.scanned, sc.pruned
	var dsp *obs.Span
	err = e.delta.ScanRuns(pid, func(c storage.ClusterID, recs, sums []byte) error {
		if !f.wants(c) {
			return nil
		}
		if dsp == nil {
			dsp = ssp.StartChild("delta")
		}
		return sc.run(ctx, recs, sums)
	})
	scanned, pruned = sc.scanned-scanned, sc.pruned-pruned
	e.stats.DeltaScanned += scanned
	dsp.SetAttr("records", int64(scanned))
	dsp.SetAttr("pruned", int64(pruned))
	dsp.End()
	return scanned, pruned, err
}
