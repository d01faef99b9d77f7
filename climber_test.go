package climber

import (
	"testing"

	"climber/internal/dataset"
	"climber/internal/dss"
	"climber/internal/series"
)

func smallData(n int) [][]float64 {
	ds := dataset.RandomWalk(64, n, 77)
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, 64)
		copy(x, ds.Get(i))
		out[i] = x
	}
	return out
}

func smallOpts() []Option {
	return []Option{
		WithSegments(8), WithPivots(24), WithPrefixLen(4),
		WithCapacity(200), WithSampleRate(0.2), WithBlockSize(250),
		WithSeed(3),
	}
}

// buildAndClose builds a database in dir and closes the handle immediately,
// leaving only the on-disk artefacts for a later Open. (An open handle owns
// the directory's single-writer WAL lock, so tests that reopen must release
// the builder first.)
func buildAndClose(tb testing.TB, dir string, data [][]float64, opts ...Option) {
	tb.Helper()
	db, err := Build(dir, data, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Close(); err != nil {
		tb.Fatal(err)
	}
}

func TestBuildSearchRoundTrip(t *testing.T) {
	data := smallData(1500)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.Search(data[10], 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 15 {
		t.Fatalf("got %d results, want 15", len(res))
	}
	if res[0].ID != 10 || res[0].Dist > 1e-4 {
		t.Fatalf("self query should find itself first: %+v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
}

func TestOpenReusesIndex(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1200)
	db, err := Build(dir, data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Search(data[7], 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // release the writer lock for reopen
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	b, err := reopened.Search(data[7], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ after reopen: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("result %d differs after reopen", i)
		}
	}
}

func TestSearchOptions(t *testing.T) {
	data := smallData(1500)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, v := range []Variant{KNN, Adaptive2X, Adaptive4X, ODSmallest} {
		res, stats, err := searchStats(db, data[3], 10, WithVariant(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res) == 0 || stats.RecordsScanned == 0 {
			t.Fatalf("%v: empty result or stats", v)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(t.TempDir(), nil); err == nil {
		t.Error("empty dataset should fail")
	}
	ragged := [][]float64{make([]float64, 8), make([]float64, 9)}
	if _, err := Build(t.TempDir(), ragged); err == nil {
		t.Error("ragged series should fail")
	}
	if _, err := Build(t.TempDir(), smallData(50), WithPivots(0)); err == nil {
		t.Error("invalid option should fail")
	}
}

func TestInfo(t *testing.T) {
	data := smallData(1000)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	info := db.Info()
	if info.SeriesLen != 64 || info.NumRecords != 1000 {
		t.Fatalf("Info = %+v", info)
	}
	if info.NumGroups < 2 || info.NumPartitions < info.NumGroups || info.SkeletonBytes <= 0 {
		t.Fatalf("implausible Info: %+v", info)
	}
	if db.Dir() == "" || db.Index() == nil {
		t.Fatal("accessors broken")
	}
}

func TestAppendThroughPublicAPI(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1200)
	db, err := Build(dir, data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	extra := smallData(30)[:5] // five fresh series (different slice of the walk space)
	ids, err := db.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 || ids[0] != 1200 {
		t.Fatalf("append ids = %v", ids)
	}
	if db.Info().NumRecords != 1205 {
		t.Fatalf("NumRecords = %d, want 1205", db.Info().NumRecords)
	}
	// The append persisted: Close compacts the delta, and reopening sees
	// the records from the partition files.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Info().NumRecords != 1205 {
		t.Fatalf("reopened NumRecords = %d, want 1205", reopened.Info().NumRecords)
	}
	res, err := reopened.Search(extra[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Dist > 1e-4 {
		t.Fatalf("appended record not findable after reopen: %+v", res)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1000)
	buildAndClose(t, dir, data, smallOpts()...)
	// Reopen and append: the ID sequence must continue from the manifest's
	// counts, not restart.
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	extra := smallData(1010)[1000:] // 10 fresh series
	ids, err := db.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 1000 || ids[9] != 1009 {
		t.Fatalf("append-after-reopen ids = %v, want 1000..1009", ids)
	}
	// A second append continues further.
	ids2, err := db.Append(extra[:3])
	if err != nil {
		t.Fatal(err)
	}
	if ids2[0] != 1010 {
		t.Fatalf("second append starts at %d, want 1010", ids2[0])
	}
	if db.Info().NumRecords != 1013 {
		t.Fatalf("NumRecords = %d, want 1013", db.Info().NumRecords)
	}
}

func TestSearchBatchPublicAPI(t *testing.T) {
	data := smallData(1000)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	queries := [][]float64{data[1], data[500], data[999]}
	batch, err := searchBatch(db, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch size %d, want 3", len(batch))
	}
	for i, res := range batch {
		seq, err := db.Search(queries[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(seq) || res[0].ID != seq[0].ID {
			t.Fatalf("batch query %d diverges from sequential", i)
		}
	}
}

func TestSearchPrefixPublicAPI(t *testing.T) {
	data := smallData(1200)
	db, err := Build(t.TempDir(), data, smallOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	short := make([]float64, 32)
	copy(short, data[9][:32])
	res, err := searchPrefix(db, short, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results for prefix query")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not ascending")
		}
	}
	if _, err := searchPrefix(db, make([]float64, 200), 10); err == nil {
		t.Error("over-length prefix accepted")
	}
}

// TestRecallAgainstExact holds each dataset's end-to-end answer quality to a
// floor: adaptive-4x at K 50 over 4 000 stored records, against the exact
// top 50 by brute force over the stored float32 readings. Of the 64 queries
// dataset.Queries draws, half are stored records and half are held out of
// the build. Each floor is the recall measured when it was set, written
// beside it, less 0.05. A planner that picks worse partitions fails it; the
// exactness checks over what a plan covered cannot see that.
func TestRecallAgainstExact(t *testing.T) {
	floors := map[string]float64{
		"randomwalk": 0.338, // measured 0.388
		"sift":       0.872, // measured 0.922
		"eeg":        0.455, // measured 0.505
		"dna":        0.324, // measured 0.374
	}
	const stored, k, nq = 4000, 50, 64
	for _, name := range dataset.Names() {
		t.Run(name, func(t *testing.T) {
			all, err := dataset.ByName(name, stored+nq/2, 11)
			if err != nil {
				t.Fatal(err)
			}
			ids, qs := dataset.Queries(all, nq, 12)
			heldOut := map[int]bool{}
			for i := 1; i < nq; i += 2 {
				heldOut[ids[i]] = true
			}
			ds := series.NewDatasetCap(all.Length(), stored)
			for id := 0; id < all.Len(); id++ {
				if !heldOut[id] {
					ds.Append(roundFloat32(all.Get(id)))
				}
			}
			db, err := BuildDataset(t.TempDir(), ds, smallOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			sum := 0.0
			for _, q := range qs {
				res, err := db.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				sr := make([]series.Result, len(res))
				for i, r := range res {
					sr[i] = series.Result{ID: r.ID, Dist: r.Dist}
				}
				sum += series.Recall(sr, dss.SearchDataset(ds, roundFloat32(q), k))
			}
			recall := sum / nq
			t.Logf("%s: recall@%d = %.3f over %d queries (floor %.3f)", name, k, recall, nq, floors[name])
			if recall < floors[name] {
				t.Fatalf("%s: recall@%d %.3f is below its floor %.3f", name, k, recall, floors[name])
			}
		})
	}
}

// roundFloat32 returns x with every reading rounded to float32, the
// precision partition files store.
func roundFloat32(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = float64(float32(v))
	}
	return out
}
