package core

import (
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/storage"
)

// routeFresh reserves IDs for n fresh series and routes them: one drain's
// worth of records, as the ingestion pipeline hands them to WriteRouted.
func routeFresh(ix *Index, n int, seed uint64) []Routed {
	ds := dataset.RandomWalk(ix.Skeleton().SeriesLen, n, seed)
	first := ix.ReserveIDs(n)
	recs := make([]Routed, n)
	for i := range recs {
		vals := make([]float64, ds.Length())
		for j, v := range ds.Get(i) {
			vals[j] = float64(float32(v))
		}
		recs[i] = Routed{ID: first + i, Route: ix.RouteNew(first+i, vals), Values: vals}
	}
	return recs
}

// lookupAll opens every partition and looks every record up by ID, cluster by
// cluster: how often each ID was met, and under which route.
func lookupAll(t testing.TB, ix *Index) (seen map[int]int, routes map[int]cluster.Route) {
	t.Helper()
	seen, routes = map[int]int{}, map[int]cluster.Route{}
	parts := ix.Partitions()
	for pid := range parts.Paths {
		h, err := ix.Cl.OpenPartition(parts, pid)
		if err != nil {
			t.Error(err)
			return
		}
		for _, ci := range h.Clusters() {
			err := h.ScanClusterRaw(ci.ID, func(id int, _ []byte) error {
				seen[id]++
				routes[id] = cluster.Route{Partition: pid, Cluster: ci.ID}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
		h.Close()
	}
	return seen, routes
}

// Searchers look every landed record up by ID, over every cluster of every
// partition, while a writer drains without pause — tail rewrites, and folds
// whenever a tail reaches an eighth of its base. A record whose drain had
// returned before the lookup began must be found exactly once, and no record
// twice: a partition is never its old base alone, never its folded base
// beside the old tail — with partitions mapped once and held, and copied
// into recycled heap buffers at every open. Run under -race.
func TestDrainFoldHammer(t *testing.T) {
	for _, backing := range []string{"mmap", "heap"} {
		t.Run(backing, func(t *testing.T) {
			if backing == "mmap" && !storage.MapSupported() {
				t.Skip("mmap unsupported on this platform")
			}
			ix, ds, _, _ := buildTestIndex(t, 1500, testConfig())
			if backing == "heap" {
				defer storage.FailMappings()()
			}
			var landed atomic.Int64
			landed.Store(int64(ds.Len()))
			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() && !t.Failed() {
						want := int(landed.Load())
						seen, _ := lookupAll(t, ix)
						for id, n := range seen {
							if n != 1 {
								t.Errorf("record %d found %d times", id, n)
								return
							}
						}
						for id := 0; id < want; id++ {
							if seen[id] != 1 {
								t.Errorf("record %d, landed before the lookup, not found", id)
								return
							}
						}
					}
				}()
			}
			var total DrainStats
			for d := 0; d < 120 && !t.Failed(); d++ {
				recs := routeFresh(ix, 24, uint64(1000+d))
				st, err := ix.WriteRouted(recs)
				if err != nil {
					t.Fatal(err)
				}
				total.TailBytes += st.TailBytes
				total.FoldBytes += st.FoldBytes
				total.Folds += st.Folds
				landed.Store(int64(recs[len(recs)-1].ID + 1))
			}
			stop.Store(true)
			wg.Wait()
			if total.TailBytes == 0 || total.Folds == 0 {
				t.Fatalf("the writer never did both: %+v", total)
			}
			if got, want := ix.PersistedRecords(), ds.Len()+120*24; got != want {
				t.Fatalf("PersistedRecords = %d, want %d", got, want)
			}
		})
	}
}

// The manifest carries the tails across a reopen, a fold clears them, and a
// manifest that lists none has no tail section: it is the file a build
// writes.
func TestManifestTailsRoundTrip(t *testing.T) {
	ix, ds, cl, _ := buildTestIndex(t, 1500, testConfig())
	path := filepath.Join(t.TempDir(), "index.clms")
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	built, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteRouted(routeFresh(ix, 30, 5)); err != nil {
		t.Fatal(err)
	}
	files, records, bytes := ix.TailStats()
	if files == 0 || records == 0 || records > 30 || bytes < int64(records*storage.RecordBytes(64)) {
		t.Fatalf("a drain of 30 records left %d tails of %d records, %d bytes", files, records, bytes)
	}
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	re, err := OpenIndex(cl, path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.Partitions().Tails, ix.Partitions().Tails) || !slices.Equal(re.Partitions().Counts, ix.Partitions().Counts) {
		t.Fatalf("reopened layout %v / %v, saved %v / %v", re.Partitions().Counts, re.Partitions().Tails, ix.Partitions().Counts, ix.Partitions().Tails)
	}
	seen, _ := lookupAll(t, re)
	if len(seen) != ds.Len()+30 || re.PersistedRecords() != ds.Len()+30 {
		t.Fatalf("reopened index holds %d records, counts %d; want %d", len(seen), re.PersistedRecords(), ds.Len()+30)
	}
	for id := ds.Len(); id < ds.Len()+30; id++ {
		if seen[id] != 1 {
			t.Fatalf("appended record %d found %d times after reopen", id, seen[id])
		}
	}

	st, err := ix.FoldTails()
	if err != nil || st.Folds != files || st.TailBytes != 0 {
		t.Fatalf("FoldTails over %d tails: %+v, %v", files, st, err)
	}
	if files, _, _ := ix.TailStats(); files != 0 {
		t.Fatalf("%d tails after FoldTails", files)
	}
	for _, p := range ix.Partitions().Paths {
		if _, err := os.Stat(cluster.TailPath(p)); !os.IsNotExist(err) {
			t.Fatalf("tail of %s survived its fold: %v", p, err)
		}
	}
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	folded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) != len(built) {
		t.Fatalf("manifest without tails is %d bytes, the build's was %d: a tail section was written for none", len(folded), len(built))
	}
}

// What a kill inside a drain leaves behind, and what open makes of it: a tail
// whose base was already folded is not read beside it, a tail the manifest
// never listed and a half-written rewrite are swept, a live tail stays.
func TestOpenKeepsOnlyLiveTails(t *testing.T) {
	ix, ds, cl, _ := buildTestIndex(t, 1500, testConfig())
	path := filepath.Join(t.TempDir(), "index.clms")
	if _, err := ix.WriteRouted(routeFresh(ix, 40, 6)); err != nil {
		t.Fatal(err)
	}
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	parts := ix.Partitions()
	var tailed []int
	for pid, n := range parts.Tails {
		if n > 0 {
			tailed = append(tailed, pid)
		}
	}
	untailed := slices.Index(parts.Tails, 0)
	if len(tailed) < 2 || untailed < 0 {
		t.Fatalf("need two tailed partitions and one without: tails %v", parts.Tails)
	}
	folded, live := tailed[0], tailed[1]

	// Killed after the fold's rename, before the tail's removal and the
	// manifest save: the base holds the tail's records, the tail is still
	// there, the manifest still lists it.
	base := parts.Paths[folded]
	if _, _, err := storage.MergePartitions(base, parts.SeriesLen, []string{base, cluster.TailPath(base)}, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Killed after a first tail write, before the manifest save; and inside a
	// rewrite.
	unlisted := cluster.TailPath(parts.Paths[untailed])
	if _, _, err := storage.MergePartitions(unlisted, parts.SeriesLen, nil, []storage.Incoming{{ID: 1 << 30, Values: make([]float64, parts.SeriesLen)}}, nil); err != nil {
		t.Fatal(err)
	}
	tmp := parts.Paths[live] + ".tmp"
	if err := os.WriteFile(tmp, []byte("half a partition"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenIndex(cl, path)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Partitions()
	if got.Tails[folded] != 0 || got.Tails[live] != parts.Tails[live] || got.Tails[untailed] != 0 {
		t.Fatalf("reopened tails %v from %v with partition %d folded", got.Tails, parts.Tails, folded)
	}
	if got.Counts[folded] != parts.Counts[folded] {
		t.Fatalf("partition %d counts %d after reopen, manifest said %d", folded, got.Counts[folded], parts.Counts[folded])
	}
	seen, _ := lookupAll(t, re)
	if len(seen) != ds.Len()+40 {
		t.Fatalf("%d distinct records after reopen, want %d", len(seen), ds.Len()+40)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d read %d times: a folded base beside its old tail", id, n)
		}
	}

	if err := SweepPartitionFiles(got); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{
		cluster.TailPath(base): false, unlisted: false, tmp: false,
		cluster.TailPath(parts.Paths[live]): true, base: true,
	} {
		if _, err := os.Stat(path); (err == nil) != want {
			t.Errorf("after the sweep %s: present %v, want %v", filepath.Base(path), err == nil, want)
		}
	}
}

// A drain that fails part-way is retried with the same IDs, some of which
// already sit in the files the first attempt did write — in a base, where it
// folded. The retry must replace them, not put a second copy in a tail.
func TestRetriedDrainReplacesWhatLanded(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	cfg := testConfig()
	ix, ds, _, _ := buildTestIndex(t, 1500, cfg)
	// Enough records per partition that the first drain folds some.
	recs := routeFresh(ix, 400, 7)
	last := 0
	for _, r := range recs {
		last = max(last, r.Route.Partition)
	}
	parts := ix.Partitions()
	for _, tmp := range []string{parts.Paths[last] + ".tmp", cluster.TailPath(parts.Paths[last]) + ".tmp"} {
		if err := os.Symlink("/dev/full", tmp); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ix.WriteRouted(recs)
	if err == nil {
		t.Fatal("drain into a full device succeeded")
	}
	if st.Folds == 0 {
		t.Fatalf("test premise broken: the failed drain folded nothing: %+v", st)
	}
	if _, err := ix.WriteRouted(recs); err != nil {
		t.Fatal(err)
	}
	seen, routes := lookupAll(t, ix)
	if len(seen) != ds.Len()+len(recs) || ix.PersistedRecords() != ds.Len()+len(recs) {
		t.Fatalf("%d distinct records, counts %d; want %d", len(seen), ix.PersistedRecords(), ds.Len()+len(recs))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d stored %d times after the retry", id, n)
		}
	}
	for _, r := range recs {
		if routes[r.ID] != r.Route {
			t.Fatalf("record %d lies at %+v, routed to %+v", r.ID, routes[r.ID], r.Route)
		}
	}
	// Later drains carry fresh IDs and go to tails again.
	st, err = ix.WriteRouted(routeFresh(ix, 16, 8))
	if err != nil || st.TailBytes == 0 {
		t.Fatalf("drain after the retry: %+v, %v", st, err)
	}
}
