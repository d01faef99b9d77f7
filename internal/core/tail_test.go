package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
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

// lookupAll pins the current view, opens every partition of it and looks
// every record up by ID, cluster by cluster: how often each ID was met, and
// under which route.
func lookupAll(t testing.TB, ix *Index) (seen map[int]int, routes map[int]cluster.Route) {
	t.Helper()
	g := ix.AcquireGeneration()
	defer g.Release()
	return lookupView(t, ix, g)
}

// lookupView is lookupAll over a view the caller holds.
func lookupView(t testing.TB, ix *Index, g *Generation) (seen map[int]int, routes map[int]cluster.Route) {
	t.Helper()
	seen, routes = map[int]int{}, map[int]cluster.Route{}
	parts := g.Parts
	for pid := range parts.Paths {
		h, err := ix.Cl.OpenPartition(parts, pid)
		if err != nil {
			t.Error(err)
			return
		}
		recBytes := storage.RecordBytes(h.SeriesLen())
		for _, ci := range h.Clusters() {
			err := h.ScanClusterRuns(ci.ID, func(recs, _ []byte) error {
				for off := 0; off < len(recs); off += recBytes {
					id := int(binary.LittleEndian.Uint64(recs[off:]))
					seen[id]++
					routes[id] = cluster.Route{Partition: pid, Cluster: ci.ID}
				}
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

// Readers pin the current view and look every record up by ID, over every
// cluster of every partition, while a writer drains 400 times without pause —
// tail writes, a fold whenever a tail reaches an eighth of its base, and a
// fold of every tail each seventh drain. A record whose drain had published
// before the pin must be found exactly once in the pinned view, and no record
// twice — with partitions mapped once and held, and copied into recycled heap
// buffers at every open. No file name ever holds two contents: each file of
// every published view is hashed, and a name hashed before must hash the
// same. Run under -race.
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
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() && !t.Failed() {
						want := int(landed.Load())
						g := ix.AcquireGeneration()
						seen, _ := lookupView(t, ix, g)
						g.Release()
						for id, n := range seen {
							if n != 1 {
								t.Errorf("record %d found %d times", id, n)
								return
							}
						}
						for id := 0; id < want; id++ {
							if seen[id] != 1 {
								t.Errorf("record %d, landed before the pin, not found", id)
								return
							}
						}
					}
				}()
			}
			// hashView hashes every file of the current view; a file hashed
			// before is hashed again only if its name now leads to another
			// inode, the one way a file of this code changes.
			type hashed struct {
				sum  [sha256.Size]byte
				file os.FileInfo
			}
			contents := map[string]hashed{}
			hashView := func() {
				t.Helper()
				for _, f := range ix.Partitions().Files() {
					info, err := os.Stat(f)
					if err != nil {
						t.Fatal(err)
					}
					old, ok := contents[f]
					if ok && os.SameFile(old.file, info) {
						continue
					}
					b, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					if sum := sha256.Sum256(b); ok && old.sum != sum {
						t.Fatalf("%s holds a second content", filepath.Base(f))
					}
					contents[f] = hashed{sha256.Sum256(b), info}
				}
			}
			hashView()
			var total DrainStats
			const drains, foldEvery = 400, 7
			for d := 1; d <= drains && !t.Failed(); d++ {
				recs := routeFresh(ix, 8, uint64(1000+d))
				st, err := ix.WriteRouted(recs)
				if err != nil {
					t.Fatal(err)
				}
				landed.Store(int64(recs[len(recs)-1].ID + 1))
				total.TailBytes += st.TailBytes
				total.Folds += st.Folds
				if d%foldEvery == 0 {
					st, err := ix.FoldTails()
					if err != nil {
						t.Fatal(err)
					}
					total.Folds += st.Folds
				}
				hashView()
			}
			stop.Store(true)
			wg.Wait()
			<-ix.retired // every view swapped out is retired
			if total.TailBytes == 0 || total.Folds == 0 {
				t.Fatalf("the writer never did both: %+v", total)
			}
			if got, want := ix.PersistedRecords(), ds.Len()+drains*8; got != want {
				t.Fatalf("PersistedRecords = %d, want %d", got, want)
			}
			// Every retired file is gone: the directory holds the view.
			ents, err := os.ReadDir(ix.Cl.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(ents), len(ix.Partitions().Files()); got != want {
				t.Fatalf("the store holds %d files, the view names %d", got, want)
			}
		})
	}
}

// A file is removed only once every view that names it is released, in
// publish order: views V1 → V2 → V3, a base named by V1 and V2 but not by V3
// (V2 gave its partition a tail, V3 folded it), and V2 released before V1.
// The base stays readable through V1 until V1 goes, and then it goes too.
func TestRetireWaitsForEveryEarlierView(t *testing.T) {
	ix, ds, _, _ := buildTestIndex(t, 1500, testConfig())
	v1 := ix.AcquireGeneration()
	recs := routeFresh(ix, 1, 3)
	pid := recs[0].Route.Partition
	if _, err := ix.WriteRouted(recs); err != nil {
		t.Fatal(err)
	}
	v2 := ix.AcquireGeneration()
	base := v2.Parts.Paths[pid]
	if _, n := v2.Parts.Tail(pid); n != 1 || base != v1.Parts.Paths[pid] {
		t.Fatalf("test premise broken: the drain left partition %d %d tail records, base %s", pid, n, base)
	}
	if st, err := ix.FoldTails(); err != nil || st.Folds != 1 {
		t.Fatalf("fold of the one tail: %+v, %v", st, err)
	}
	retired := ix.retired // V3's publish: it retires V2
	if ix.Partitions().Paths[pid] == base {
		t.Fatal("test premise broken: the fold kept its base's name")
	}

	v2.Release()
	for i := 0; i < 3; i++ {
		runtime.Gosched()
	}
	select {
	case <-retired:
		t.Fatal("V2's files were retired while V1, which names one of them, was held")
	default:
	}
	seen, _ := lookupView(t, ix, v1)
	if len(seen) != ds.Len() {
		t.Fatalf("V1 reads %d records after V2's release, want %d", len(seen), ds.Len())
	}
	v1.Release()
	<-retired
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Fatalf("the base V1 and V2 named outlived both: %v", err)
	}
	seen, _ = lookupAll(t, ix)
	if len(seen) != ds.Len()+1 {
		t.Fatalf("V3 reads %d records, want %d", len(seen), ds.Len()+1)
	}
}

// No query reads a partition after its release. A query opens the
// partitions of its plan; drains and folds then replace each of their files,
// and the view that named them is retired, which releases them: a mapping is
// unmapped, a heap copy's buffer goes back to the pool. Race builds poison
// both (storage's poisonReleased), so a second query that read a record
// slice kept from the first would fault or rank NaN. It must answer its own
// record first, at distance 0, with finite distances. Run under -race, on
// both backings.
func TestNoQueryReadsARetiredPartition(t *testing.T) {
	for _, backing := range []string{"mmap", "heap"} {
		t.Run(backing, func(t *testing.T) {
			if backing == "mmap" && !storage.MapSupported() {
				t.Skip("mmap unsupported on this platform")
			}
			ix, ds, _, _ := buildTestIndex(t, 1500, testConfig())
			if backing == "heap" {
				defer storage.FailMappings()()
			}
			query := func(id int) *SearchResult {
				t.Helper()
				defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("query of record %d faulted: %v", id, r)
					}
				}()
				res, err := ix.Search(ds.Get(id), SearchOptions{K: 10, Variant: VariantAdaptive4X, Explain: true})
				if err != nil {
					t.Fatal(err)
				}
				if top := res.Results[0]; top.ID != id || top.Dist != 0 {
					t.Fatalf("query of record %d answered %+v first", id, top)
				}
				for _, r := range res.Results {
					if math.IsNaN(r.Dist) || math.IsInf(r.Dist, 0) {
						t.Fatalf("query of record %d ranked %+v", id, r)
					}
				}
				return res
			}
			read := map[int]string{}
			for _, pid := range query(7).Explain.Partitions {
				read[pid] = ix.Partitions().Paths[pid]
			}
			replaced := func() bool {
				for pid, path := range read {
					if ix.Partitions().Paths[pid] == path {
						return false
					}
				}
				return true
			}
			for seed := uint64(1); !replaced(); seed++ {
				if seed > 20 {
					t.Fatal("20 drains and folds left a file the first query read")
				}
				if _, err := ix.WriteRouted(routeFresh(ix, 200, seed)); err != nil {
					t.Fatal(err)
				}
				if _, err := ix.FoldTails(); err != nil {
					t.Fatal(err)
				}
			}
			<-ix.retired
			query(8)
		})
	}
}

// A retirement still waiting for a reader when the index closes removes
// nothing: the replaced files stay for the next writable open's sweep, so no
// removal reaches the directory after Close.
func TestCloseLeavesPendingRetirements(t *testing.T) {
	ix, _, _, _ := buildTestIndex(t, 1500, testConfig())
	v1 := ix.AcquireGeneration()
	if _, err := ix.WriteRouted(routeFresh(ix, 200, 4)); err != nil {
		t.Fatal(err)
	}
	if st, err := ix.FoldTails(); err != nil || st.Folds == 0 {
		t.Fatalf("fold after the drain: %+v, %v", st, err)
	}
	var replaced []string
	for _, f := range v1.Parts.Files() {
		if !slices.Contains(ix.Partitions().Files(), f) {
			replaced = append(replaced, f)
		}
	}
	if len(replaced) == 0 {
		t.Fatal("test premise broken: the fold replaced no file V1 names")
	}
	ix.Close()
	v1.Release()
	<-ix.retired
	for _, f := range replaced {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("a retirement removed %s after Close: %v", filepath.Base(f), err)
		}
	}
}

// The manifest carries the tails across a reopen, a fold clears them, and a
// manifest that lists none has no tail section: it ends with its last
// partition, as the file a build writes does.
func TestManifestTailsRoundTrip(t *testing.T) {
	ix, ds, cl, _ := buildTestIndex(t, 1500, testConfig())
	path := filepath.Join(t.TempDir(), "index.clms")
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	// endsWithLast reports whether a manifest of parts ends with its last
	// partition's entry, path (as SaveSnapshot stores it) and record count.
	endsWithLast := func(manifest []byte, parts *cluster.PartitionSet) bool {
		last := len(parts.Paths) - 1
		stored := parts.Paths[last]
		if rel, err := filepath.Rel(filepath.Dir(path), stored); err == nil && filepath.IsLocal(rel) {
			stored = rel
		}
		return bytes.HasSuffix(manifest, binary.LittleEndian.AppendUint64([]byte(stored), uint64(parts.Counts[last])))
	}
	built, err := os.ReadFile(path)
	if err != nil || !endsWithLast(built, ix.Partitions()) {
		t.Fatalf("a build's manifest does not end with its last partition (%v)", err)
	}
	if _, err := ix.WriteRouted(routeFresh(ix, 30, 5)); err != nil {
		t.Fatal(err)
	}
	files, records, size := ix.TailStats()
	if files == 0 || records == 0 || records > 30 || size < int64(records*storage.RecordBytes(64)) {
		t.Fatalf("a drain of 30 records left %d tails of %d records, %d bytes", files, records, size)
	}
	tailed := ix.Partitions()
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
	for _, p := range tailed.Files() {
		if _, err := os.Stat(p); !os.IsNotExist(err) && !slices.Contains(ix.Partitions().Paths, p) {
			t.Fatalf("%s survived its fold: %v", p, err)
		}
	}
	if err := SaveIndex(ix, path); err != nil {
		t.Fatal(err)
	}
	folded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !endsWithLast(folded, ix.Partitions()) {
		t.Fatal("the manifest of an index without tails does not end with its last partition: a tail section was written for none")
	}
}

// What a kill inside a drain of the legacy layout leaves behind, and what
// open makes of it: a tail whose base was already folded is not read beside
// it, a live tail is, and the sweep removes that tail, a tail the manifest
// never listed and a half-written rewrite, and nothing else. The directory,
// testdata/legacy-tails, was written by the code that still rewrote files
// under their names, with the TAIL trailer; testdata/legacy-tails.json names
// its partitions.
func TestOpenKeepsOnlyLiveTails(t *testing.T) {
	var fx struct{ Folded, Live, Unlisted, NumRecords int }
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy-tails.json"))
	if err == nil {
		err = json.Unmarshal(b, &fx)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("..", "..", "testdata", "legacy-tails"))); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(StoreDir(dir), 2)
	defer cl.Close()
	ix, err := OpenIndex(cl, IndexPathIn(dir))
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Partitions()
	live, n := got.Tail(fx.Live)
	if _, folded := got.Tail(fx.Folded); folded != 0 || n == 0 || live != cluster.TailPath(got.Paths[fx.Live]) {
		t.Fatalf("reopened tails %v at %v: partition %d's was folded, %d's is live", got.Tails, got.TailPaths, fx.Folded, fx.Live)
	}
	if _, unlisted := got.Tail(fx.Unlisted); unlisted != 0 {
		t.Fatalf("partition %d reads a tail the manifest never listed", fx.Unlisted)
	}
	seen, _ := lookupAll(t, ix)
	if len(seen) != fx.NumRecords || ix.PersistedRecords() != fx.NumRecords {
		t.Fatalf("%d distinct records, counts %d; want %d", len(seen), ix.PersistedRecords(), fx.NumRecords)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %d read %d times: a folded base beside its old tail", id, n)
		}
	}

	folded := cluster.TailPath(got.Paths[fx.Folded])
	unlisted := cluster.TailPath(got.Paths[fx.Unlisted])
	tmp := got.Paths[fx.Live] + ".tmp"
	for _, f := range []string{folded, unlisted, tmp} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("test premise broken: %v", err)
		}
	}
	if err := SweepPartitionFiles(dir, got); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{folded, unlisted, tmp} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("after the sweep %s is still there: %v", filepath.Base(f), err)
		}
	}
	for _, f := range got.Files() {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("the sweep removed %s, which the manifest names: %v", filepath.Base(f), err)
		}
	}
}

// A drain that fails part-way, after it folded some partitions, removes every
// file it wrote, so its retry with the same IDs stores each record once,
// where its route says, and later drains write tails again.
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
