package climber

import (
	"context"
	"fmt"
	"testing"

	"climber/internal/dataset"
)

// TestEveryRecordIsItsOwnNearest checks the routing guarantee against ground
// truth rather than against an earlier copy of the engine: a record is stored
// in the (group, trie node) its own query selects, so every stored series,
// queried with the readings the database holds, comes back as its own 1-NN —
// its own ID, or a duplicate at distance ≤ 1e-4 — under every variant. It is
// checked after the build, again after appends are flushed into partition
// files, and again after an online reindex has re-routed every record through
// a new skeleton. The sweep covers fine and coarse partitions (many and few
// internal-node stops) and a sampled and a full skeleton (ties between groups
// the sample never saw, and none); each case names its seed.
func TestEveryRecordIsItsOwnNearest(t *testing.T) {
	const base, appended = 300, 60
	variants := []Variant{KNN, Adaptive2X, Adaptive4X, ODSmallest}
	for seed := uint64(1); seed <= 12; seed++ {
		for _, capacity := range []int{60, 200} {
			for _, rate := range []float64{0.2, 1} {
				name := fmt.Sprintf("seed=%d/capacity=%d/rate=%g", seed, capacity, rate)
				t.Run(name, func(t *testing.T) {
					ds := dataset.RandomWalk(64, base+appended, seed)
					data := make([][]float64, ds.Len())
					for i := range data {
						data[i] = roundedF32(ds.Get(i))
					}
					db, err := Build(t.TempDir(), data[:base],
						WithSegments(8), WithPivots(24), WithPrefixLen(4),
						WithCapacity(capacity), WithSampleRate(rate), WithBlockSize(50),
						WithSeed(seed))
					if err != nil {
						t.Fatal(err)
					}
					defer db.Close()
					requireOwnNearest(t, db, data[:base], variants, "build")

					ids, err := db.Append(data[base:])
					if err != nil {
						t.Fatal(err)
					}
					for i, id := range ids {
						if id != base+i {
							t.Fatalf("appended record %d got ID %d, want %d", i, id, base+i)
						}
					}
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					requireOwnNearest(t, db, data, variants, "append+flush")

					if err := db.Reindex(context.Background()); err != nil {
						t.Fatal(err)
					}
					requireOwnNearest(t, db, data, variants, "reindex")
				})
			}
		}
	}
}

// requireOwnNearest fails the test, naming the stage and the first few
// misses, unless every data[id] is its own 1-NN under every variant.
func requireOwnNearest(t *testing.T, db *DB, data [][]float64, variants []Variant, stage string) {
	t.Helper()
	misses := 0
	for id, s := range data {
		for _, v := range variants {
			res, err := db.Search(s, 1, WithVariant(v))
			if err != nil {
				t.Fatalf("%s: search for record %d (%v): %v", stage, id, v, err)
			}
			if len(res) == 1 && (res[0].ID == id || res[0].Dist <= 1e-4) {
				continue
			}
			if misses++; misses <= 5 {
				t.Errorf("%s: record %d (%v) is not its own 1-NN: %+v", stage, id, v, res)
			}
		}
	}
	if misses > 0 {
		t.Fatalf("%s: %d of %d self-queries missed", stage, misses, len(data)*len(variants))
	}
}
