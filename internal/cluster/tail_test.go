package cluster

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"climber/internal/storage"
)

// tailRecord is record id of the tail tests: cluster id%5 - 1 (so the
// overflow cluster -1 takes part), readings derived from the ID.
func tailRecord(id int) storage.Incoming {
	return storage.Incoming{Cluster: storage.ClusterID(id%5 - 1), ID: id, Values: []float64{float64(id), 0.5, -float64(id)}}
}

func tailRecords(lo, hi int) []storage.Incoming {
	out := make([]storage.Incoming, 0, hi-lo)
	for id := lo; id < hi; id++ {
		out = append(out, tailRecord(id))
	}
	return out
}

// dump reads a whole partition through every read method of the handle and
// returns what each saw, in one comparable value.
func dump(t *testing.T, h *PartitionHandle) map[string]any {
	t.Helper()
	type rec struct {
		ID   int
		Vals string
	}
	out := map[string]any{"count": h.Count()}
	var ids []storage.ClusterID
	counts := map[storage.ClusterID]int{}
	for _, ci := range h.Clusters() {
		ids = append(ids, ci.ID)
		counts[ci.ID] = ci.Count
	}
	out["clusters"], out["counts"] = ids, counts

	decoded := func(into *[]rec) func(int, []float64) error {
		return func(id int, values []float64) error {
			*into = append(*into, rec{id, fmt.Sprint(values)})
			return nil
		}
	}
	raw := func(into *[]rec) func(int, []byte) error {
		return func(id int, b []byte) error {
			*into = append(*into, rec{id, fmt.Sprint(b)})
			return nil
		}
	}
	// rawRuns reads what raw does from a cluster's runs: each record's ID
	// is its first 8 bytes, its readings the rest.
	recBytes := storage.RecordBytes(h.SeriesLen())
	rawRuns := func(into *[]rec) func(recs, sums []byte) error {
		return func(recs, _ []byte) error {
			for off := 0; off < len(recs); off += recBytes {
				r := recs[off : off+recBytes]
				*into = append(*into, rec{int(binary.LittleEndian.Uint64(r)), fmt.Sprint(r[8:])})
			}
			return nil
		}
	}
	var all, byCluster, listed, rawByCluster, rawListed []rec
	if err := h.ScanAll(decoded(&all)); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		before := len(byCluster)
		if err := h.ScanCluster(id, decoded(&byCluster)); err != nil {
			t.Fatal(err)
		}
		if got := len(byCluster) - before; got != counts[id] {
			t.Fatalf("cluster %d streams %d records, its directory entry says %d", id, got, counts[id])
		}
		if err := h.ScanClusterRuns(id, rawRuns(&rawByCluster)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.ScanClusters(ids, decoded(&listed)); err != nil {
		t.Fatal(err)
	}
	if err := h.ScanClustersRaw(ids, raw(&rawListed)); err != nil {
		t.Fatal(err)
	}
	// Cluster by cluster the base's records come before the tail's; over a
	// list of clusters every base cluster comes first. The same records
	// either way.
	for _, rs := range [][]rec{all, byCluster, listed, rawByCluster, rawListed} {
		sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	}
	if !reflect.DeepEqual(all, byCluster) || !reflect.DeepEqual(all, listed) || !reflect.DeepEqual(rawByCluster, rawListed) || len(all) != len(rawListed) {
		t.Fatal("the handle's scans disagree about the partition's records")
	}
	out["decoded"], out["raw"] = all, rawListed
	return out
}

// A partition read through its handle is the same partition whether its
// records sit in one file or in a base and a tail, on both backings: a
// mapping held in the store's registry from the first open on, and the heap
// copy each open loads for itself when mapping fails.
func TestHandleReadsBaseAndTailAsOne(t *testing.T) {
	for _, backing := range []string{"heap", "mmap"} {
		t.Run(backing, func(t *testing.T) {
			if backing == "mmap" && !storage.MapSupported() {
				t.Skip("mmap unsupported on this platform")
			}
			c := testCluster(t)
			if backing == "heap" {
				defer storage.FailMappings()()
			}
			whole := PartitionPath(c.Dir(), "whole", 0)
			split := PartitionPath(c.Dir(), "split", 0)
			// The tail holds records of clusters the base has, of one it
			// lacks (IDs 4 mod 5 exist only above 40), and misses others.
			base := baseRecords()
			tail := append(tailRecords(40, 47), tailRecord(49))
			for path, recs := range map[string][]storage.Incoming{
				whole: append(append([]storage.Incoming{}, base...), tail...), split: base, TailPath(split): tail,
			} {
				if _, _, err := storage.MergePartitions(path, 3, nil, recs, nil); err != nil {
					t.Fatal(err)
				}
			}
			ps := &PartitionSet{Paths: []string{whole, split}, SeriesLen: 3, Counts: []int{len(base) + len(tail), len(base) + len(tail)},
				Tails: []int{0, len(tail)}, TailPaths: []string{"", TailPath(split)}}
			if ps.Len() != 2*(len(base)+len(tail)) {
				t.Fatalf("Len() = %d with a tail recorded", ps.Len())
			}

			var dumps [2]map[string]any
			for pid := range dumps {
				for round := 0; round < 2; round++ { // first open, then the held mapping
					h, err := c.OpenPartition(ps, pid)
					if err != nil {
						t.Fatal(err)
					}
					if backing == "heap" == h.Mapped() {
						t.Fatalf("partition %d: mapped = %v", pid, h.Mapped())
					}
					dumps[pid] = dump(t, h)
					if err := h.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !reflect.DeepEqual(dumps[0], dumps[1]) {
				t.Fatalf("base + tail reads differently from one file of the same records:\none file: %v\nsplit:    %v", dumps[0], dumps[1])
			}
			// Each of the 1 + 2 files is mapped once; a heap copy is loaded
			// at each of its two opens, every one of them a fallback.
			loads := int64(3)
			if backing == "heap" {
				loads = 6
			}
			if got := c.Stats.PartitionsLoaded.Load(); got != loads {
				t.Fatalf("PartitionsLoaded = %d, want %d", got, loads)
			}
			// Every load was a miss; the other opens, of held mappings, hit.
			hits, misses := c.Stats.PartitionCacheHits.Load(), c.Stats.PartitionCacheMisses.Load()
			if misses != loads || hits != 6-loads {
				t.Fatalf("%d hits and %d misses in 6 opens of %d loads", hits, misses, loads)
			}
			fallbacks := int64(0)
			if backing == "heap" {
				fallbacks = loads
			}
			if got := c.Stats.MapFallbacks.Load(); got != fallbacks {
				t.Fatalf("MapFallbacks = %d, want %d", got, fallbacks)
			}
		})
	}
}

// baseRecords is the base file of TestHandleReadsBaseAndTailAsOne: IDs 0..39 without
// the ones of cluster 3 (IDs 4 mod 5).
func baseRecords() []storage.Incoming {
	var out []storage.Incoming
	for _, r := range tailRecords(0, 40) {
		if r.Cluster != 3 {
			out = append(out, r)
		}
	}
	return out
}

// Readers open one partition of the current view and stream it while a
// writer drains 400 times without pause: each drain writes a grown tail under
// a new name, each seventh folds base and tail into a new base, and the view
// that names the new files is published in one step. A handle must pair each
// view's base with that view's tail — every record once, each record that
// landed before the open among them — with files mapped once and held, and
// copied into heap buffers at every open. A replaced file is retired and
// removed only once no reader can hold a view that names it. Run under -race.
func TestOpenPartitionPairsBaseWithItsTail(t *testing.T) {
	for _, backing := range []string{"mmap", "heap"} {
		t.Run(backing, func(t *testing.T) {
			if backing == "mmap" && !storage.MapSupported() {
				t.Skip("mmap unsupported on this platform")
			}
			if backing == "heap" {
				defer storage.FailMappings()()
			}
			c := testCluster(t)
			base := PartitionPath(c.Dir(), "hammer", 0)
			const built, perDrain, drains, foldEvery = 64, 3, 400, 7
			if _, _, err := storage.MergePartitions(base, 3, nil, tailRecords(0, built), nil); err != nil {
				t.Fatal(err)
			}
			var view atomic.Pointer[PartitionSet]
			view.Store(&PartitionSet{Paths: []string{base}, SeriesLen: 3, Counts: []int{built}})

			// pins is held shared by a reader from loading the view until it
			// closes its handle; the writer takes it alone once after each
			// publish, after which no reader holds an earlier view.
			var pins sync.RWMutex
			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						pins.RLock()
						ps := view.Load()
						want := ps.Counts[0]
						h, err := c.OpenPartition(ps, 0)
						if err != nil {
							pins.RUnlock()
							t.Error(err)
							return
						}
						seen := make(map[int]int, h.Count())
						recBytes := storage.RecordBytes(h.SeriesLen())
						for _, ci := range h.Clusters() {
							err := h.ScanClusterRuns(ci.ID, func(recs, _ []byte) error {
								for off := 0; off < len(recs); off += recBytes {
									seen[int(binary.LittleEndian.Uint64(recs[off:]))]++
								}
								return nil
							})
							if err != nil {
								t.Error(err)
							}
						}
						n := h.Count()
						h.Close()
						pins.RUnlock()
						if len(seen) != n || n != want {
							t.Errorf("handle of %d records streams %d distinct IDs, the view counts %d", n, len(seen), want)
							return
						}
						for id := 0; id < want; id++ {
							if seen[id] != 1 {
								t.Errorf("record %d, landed before the open, was seen %d times among %d", id, seen[id], n)
								return
							}
						}
					}
				}()
			}

			next := built
			for d := 1; d <= drains && !t.Failed(); d++ {
				in := tailRecords(next, next+perDrain)
				next += perDrain
				old := view.Load()
				cur := old.Clone()
				tail, inTail := old.Tail(0)
				var srcs []string
				if tail != "" {
					srcs = []string{tail}
				}
				if d%foldEvery != 0 {
					dst := TailPath(old.Paths[0])
					if tail != "" {
						dst = GrownTailPath(old.Paths[0], inTail+perDrain)
					}
					if _, _, err := storage.MergePartitions(dst, 3, srcs, in, nil); err != nil {
						t.Fatal(err)
					}
					cur.Tails[0], cur.TailPaths[0] = inTail+perDrain, dst
				} else {
					dst := FoldedPath(old.Paths[0], next)
					if _, _, err := storage.MergePartitions(dst, 3, append([]string{old.Paths[0]}, srcs...), in, nil); err != nil {
						t.Fatal(err)
					}
					cur.Paths[0], cur.Tails[0], cur.TailPaths[0] = dst, 0, ""
				}
				cur.Counts[0] = next
				view.Store(cur)
				// Taken and let go at once: this waits out every reader of old.
				pins.Lock()
				pins.Unlock()
				for _, f := range old.Files() {
					if !slices.Contains(cur.Files(), f) {
						c.Retire(f)
						if err := os.Remove(f); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			stop.Store(true)
			wg.Wait()
			ents, err := os.ReadDir(c.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(ents), len(view.Load().Files()); got != want {
				t.Fatalf("the store holds %d files, the view names %d", got, want)
			}
		})
	}
}

// A reindex reads partition files as a source, bases only, and is refused a
// set whose tails were not folded first rather than handed a short read.
func TestPartitionSourceRefusesTails(t *testing.T) {
	c := testCluster(t)
	base := PartitionPath(c.Dir(), "src", 0)
	if _, _, err := storage.MergePartitions(base, 3, nil, tailRecords(0, 8), nil); err != nil {
		t.Fatal(err)
	}
	ps := &PartitionSet{Paths: []string{base}, SeriesLen: 3, Counts: []int{8}}
	n := 0
	count := func(int, []float64) error { n++; return nil }
	if err := ps.ScanBlock(0, count); err != nil || n != 8 {
		t.Fatalf("scan of a partition without a tail: %d records, %v", n, err)
	}
	ps.Counts, ps.Tails, ps.TailPaths = []int{10}, []int{2}, []string{TailPath(base)}
	if err := ps.ScanBlock(0, count); err == nil {
		t.Fatal("a partition with an unfolded tail was read as a build source")
	}
}
