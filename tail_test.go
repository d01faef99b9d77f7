package climber

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/storage"
)

// whereRecords reads the whole database by exact scan of one pinned view:
// every record of every partition (base and tail, through the partition
// handle) with the route it lies at, and every record of the view's delta.
func whereRecords(t *testing.T, db *DB) (disk map[int]cluster.Route, delta map[int]bool) {
	t.Helper()
	disk, delta = map[int]cluster.Route{}, map[int]bool{}
	ix := db.Index()
	view := ix.AcquireGeneration()
	defer view.Release()
	parts := view.Parts
	for pid := range parts.Paths {
		h, err := ix.Cl.OpenPartition(parts, pid)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range h.Clusters() {
			err := h.ScanCluster(ci.ID, func(id int, _ []float64) error {
				if at, dup := disk[id]; dup {
					t.Fatalf("record %d is in the partition files twice: at %+v and in partition %d cluster %d", id, at, pid, ci.ID)
				}
				disk[id] = cluster.Route{Partition: pid, Cluster: ci.ID}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		h.Close()
		if d := view.Delta(); d != nil {
			recBytes := storage.RecordBytes(parts.SeriesLen)
			err := d.ScanRuns(pid, func(_ storage.ClusterID, recs, _ []byte) error {
				for off := 0; off < len(recs); off += recBytes {
					delta[int(binary.LittleEndian.Uint64(recs[off:]))] = true
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return disk, delta
}

// A random walk over everything that moves records between the delta, the
// tails and the bases — append, drain, the fold of every tail, a clean close
// and reopen, a kill and reopen — checked after every step against a model:
// each record acked so far is present exactly once, where its route says,
// and the persisted count is the number of records in the files.
func TestTailLifecycleProperty(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"files", nil},
		{"mmap", []Option{WithPartitionCacheBytes(1 << 28)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := ingestOpts(mode.opts...)
			pool := smallData(3000)
			db, err := Build(dir, pool[:900], opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { db.Close() }()
			model := 900 // IDs 0..model-1 are acked; pool[id] is record id
			rng := rand.New(rand.NewPCG(23, uint64(len(mode.name))))
			var folds, tailsSeen int64
			for step := 0; step < 70; step++ {
				op := rng.IntN(10)
				what := ""
				switch {
				case op < 4 && model < len(pool)-40:
					n := 1 + rng.IntN(40)
					ids, err := db.Append(pool[model : model+n])
					if err != nil {
						t.Fatal(err)
					}
					if ids[0] != model || ids[n-1] != model+n-1 {
						t.Fatalf("step %d: append of %d got IDs %d..%d, want from %d", step, n, ids[0], ids[n-1], model)
					}
					model += n
					what = fmt.Sprintf("append %d", n)
				case op < 7:
					if err := db.Flush(); err != nil {
						t.Fatal(err)
					}
					what = "drain"
				case op == 7:
					if err := db.foldTailsForTest(); err != nil {
						t.Fatal(err)
					}
					if n := db.IngestStats().TailFiles; n != 0 {
						t.Fatalf("step %d: %d tails after the fold of every tail", step, n)
					}
					what = "fold"
				default:
					folds += db.IngestStats().Folds
					what = "close + reopen"
					if op == 9 {
						what = "kill + reopen"
						db.abandonForTest()
					}
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					if db, err = Open(dir, opts...); err != nil {
						t.Fatal(err)
					}
				}
				tailsSeen += int64(db.IngestStats().TailFiles)

				disk, delta := whereRecords(t, db)
				ix := db.Index()
				for id := 0; id < model; id++ {
					at, onDisk := disk[id]
					if onDisk == delta[id] {
						t.Fatalf("step %d (%s): record %d on disk %v, in the delta %v; want exactly one", step, what, id, onDisk, delta[id])
					}
					if want := ix.RouteNew(id, roundedF32(pool[id])); onDisk && at != want {
						t.Fatalf("step %d (%s): record %d lies at %+v, its route is %+v", step, what, id, at, want)
					}
				}
				if len(disk)+len(delta) != model {
					t.Fatalf("step %d (%s): %d records on disk + %d in the delta, %d acked", step, what, len(disk), len(delta), model)
				}
				if got := ix.PersistedRecords(); got != len(disk) {
					t.Fatalf("step %d (%s): PersistedRecords = %d, the files hold %d", step, what, got, len(disk))
				}
				if n := db.Info().NumRecords; n != model {
					t.Fatalf("step %d (%s): NumRecords = %d, want %d", step, what, n, model)
				}
			}
			if folds += db.IngestStats().Folds; folds == 0 || tailsSeen == 0 {
				t.Fatalf("the walk never met both a tail and a fold: %d tail sightings, %d folds", tailsSeen, folds)
			}
		})
	}
}

// roundedF32 is a series as the index stores it.
func roundedF32(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = float64(float32(v))
	}
	return out
}

// Where a record is served from must not change an answer: the same appended
// records drained into tails in one database and left in the delta of its
// twin give the same neighbours at the same distances, bit for bit, for all
// four variants and for prefix queries, with the partitions mapped per
// query, mapped in the cache, and copied into the cache because mapping
// failed. Tail and delta hold the same record bytes and the one partition
// scan ranks both, so an appended record's own query finds it first at
// exactly 0 through either twin.
func TestTailAnswersMatchDelta(t *testing.T) {
	data := smallData(1300)
	for _, mode := range []struct {
		name string
		opts []Option
		heap bool
	}{
		{"uncached", nil, false},
		{"heap", []Option{WithPartitionCacheBytes(1 << 28)}, true},
		{"mmap", []Option{WithPartitionCacheBytes(1 << 28)}, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.heap {
				defer storage.FailMappings()()
			}
			var dbs [2]*DB
			for i := range dbs {
				db, err := Build(t.TempDir(), data[:1200], ingestOpts(mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if _, err := db.Append(data[1200:]); err != nil {
					t.Fatal(err)
				}
				dbs[i] = db
			}
			tailed, pending := dbs[0], dbs[1]
			if err := tailed.Flush(); err != nil {
				t.Fatal(err)
			}
			if st := tailed.IngestStats(); st.TailFiles == 0 || st.DeltaRecords != 0 {
				t.Fatalf("drained twin: %d tails, %d delta records", st.TailFiles, st.DeltaRecords)
			}
			if st := pending.IngestStats(); st.TailFiles != 0 || st.DeltaRecords != 100 {
				t.Fatalf("undrained twin: %d tails, %d delta records", st.TailFiles, st.DeltaRecords)
			}
			same := func(kind string, a, b []Result) {
				t.Helper()
				if len(a) != len(b) {
					t.Fatalf("%s: %d results through tails, %d through the delta", kind, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s result %d: %+v through tails, %+v through the delta", kind, i, a[i], b[i])
					}
				}
			}
			// selfFirst requires an appended record's own query to rank it
			// first, at distance 0.
			selfFirst := func(kind string, qi int, res []Result) {
				t.Helper()
				if qi >= 1200 && (len(res) == 0 || res[0].ID != qi || res[0].Dist != 0) {
					t.Fatalf("%s: appended record %d is not its own nearest at 0: %+v", kind, qi, res)
				}
			}
			appendedHits := 0
			for _, qi := range []int{5, 333, 901, 1204, 1250, 1299} {
				for _, v := range reindexVariants {
					a, err := tailed.Search(data[qi], 10, WithVariant(v))
					if err != nil {
						t.Fatal(err)
					}
					b, err := pending.Search(data[qi], 10, WithVariant(v))
					if err != nil {
						t.Fatal(err)
					}
					kind := fmt.Sprintf("query %d variant %v", qi, v)
					same(kind, a, b)
					selfFirst(kind+" through tails", qi, a)
					selfFirst(kind+" through the delta", qi, b)
					for _, r := range a {
						if r.ID >= 1200 {
							appendedHits++
						}
					}
				}
				a, err := searchPrefix(tailed, data[qi][:32], 10)
				if err != nil {
					t.Fatal(err)
				}
				b, err := searchPrefix(pending, data[qi][:32], 10)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("query %d prefix", qi), a, b)
			}
			if appendedHits == 0 {
				t.Fatal("no answer held an appended record: the tails were never what was compared")
			}
		})
	}
}

// One encoder writes a record wherever it is held: after the first drain of
// a fresh database, every cluster of every tail holds exactly the bytes of
// the delta run its records sat in before the drain — record bytes and
// summary bytes alike, in the same order (storage.AppendRecord encoded
// both). A run is known by its partition and its first record's ID.
func TestDrainedTailsHoldTheDeltaRuns(t *testing.T) {
	data := smallData(1300)
	db, err := Build(t.TempDir(), data[:1200], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Append(data[1200:]); err != nil {
		t.Fatal(err)
	}
	type run struct{ pid, first int }
	ix := db.Index()
	parts := ix.Partitions()
	runs := map[run][2][]byte{}
	tails := map[int]bool{}
	for pid := range parts.Paths {
		err := ix.Delta().ScanRuns(pid, func(_ storage.ClusterID, recs, sums []byte) error {
			runs[run{pid, int(binary.LittleEndian.Uint64(recs))}] = [2][]byte{bytes.Clone(recs), bytes.Clone(sums)}
			tails[pid] = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.IngestStats(); st.Folds != 0 || st.TailFiles != len(tails) {
		t.Fatalf("the drain left %d tails and %d folds; want a tail for each of the %d partitions the delta held, no fold", st.TailFiles, st.Folds, len(tails))
	}
	records := 0
	for pid := range tails {
		tail, err := storage.LoadPartition(cluster.TailPath(parts.Paths[pid]))
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		for _, ci := range tail.Clusters() {
			err := tail.ScanClusterRuns(ci.ID, func(recs, sums []byte) error {
				key := run{pid, int(binary.LittleEndian.Uint64(recs))}
				if want, ok := runs[key]; !ok || !bytes.Equal(recs, want[0]) || !bytes.Equal(sums, want[1]) {
					return fmt.Errorf("partition %d cluster %d: the tail's bytes differ from the delta run's", pid, ci.ID)
				}
				delete(runs, key)
				records += len(recs) / storage.RecordBytes(parts.SeriesLen)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if records != 100 || len(runs) != 0 {
		t.Fatalf("the tails hold %d of the 100 drained records; %d delta runs are in no tail cluster", records, len(runs))
	}
}

// A backup begins by folding: taken from a database whose appended records
// sit in tails, it holds base files only, complete, and the source is left
// with none either.
func TestBackupFoldsTailsFirst(t *testing.T) {
	data := smallData(1100)
	db, err := Build(t.TempDir(), data[:1000], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Append(data[1000:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.IngestStats().TailFiles == 0 {
		t.Fatal("test premise broken: the drain left no tail")
	}
	backup := filepath.Join(t.TempDir(), "backup")
	if err := db.Backup(context.Background(), backup); err != nil {
		t.Fatal(err)
	}
	if st := db.IngestStats(); st.TailFiles != 0 || st.Folds == 0 {
		t.Fatalf("after the backup the source has %d tails, %d folds", st.TailFiles, st.Folds)
	}
	if tree := listTree(t, backup); strings.Contains(tree, ".tail") || strings.Contains(tree, ".tmp") {
		t.Fatalf("backup holds more than bases:\n%s", tree)
	}
	re, err := Open(backup, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	disk, _ := whereRecords(t, re)
	if len(disk) != 1100 || re.Info().NumRecords != 1100 {
		t.Fatalf("backup holds %d records, counts %d; want 1100", len(disk), re.Info().NumRecords)
	}
}

// A backup through a read-only open, which folds nothing, takes the tails
// along: it holds every record its manifest counts, and an appended record
// that lives in a tail still finds itself there.
func TestReadOnlyBackupKeepsTails(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1100)
	db, err := Build(dir, data[:1000], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[1000:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if files, _, _ := ro.Index().TailStats(); files == 0 {
		t.Fatal("test premise broken: the drain left no tail")
	}
	backup := filepath.Join(t.TempDir(), "backup")
	if err := ro.Backup(context.Background(), backup); err != nil {
		t.Fatal(err)
	}
	re, err := Open(backup, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	disk, _ := whereRecords(t, re)
	if len(disk) != 1100 || re.Info().NumRecords != 1100 {
		t.Fatalf("backup holds %d records, counts %d; want 1100", len(disk), re.Info().NumRecords)
	}
	res, err := re.Search(data[1050], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 1050 || res[0].Dist > 1e-4 {
		t.Fatalf("appended record 1050 searched in the backup: %+v", res)
	}
}

// A read-only open of a directory a kill left mid-drain serves what the
// manifest describes and touches nothing: the stray files stay for the next
// writer's open to sweep.
func TestReadOnlyOpenLeavesDrainDebris(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1000)
	db, err := Build(dir, data[:900], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[900:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	parts := db.Index().Partitions()
	tmp := parts.Paths[0] + ".tmp"
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half a partition"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := listTree(t, dir)
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	disk, _ := whereRecords(t, ro)
	ro.Close()
	if len(disk) != 1000 {
		t.Fatalf("read-only open sees %d records, want 1000", len(disk))
	}
	if after := listTree(t, dir); after != before {
		t.Fatalf("read-only open changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	rw, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("a writer's open left the interrupted rewrite behind: %v", err)
	}
}

// A directory written while drains still rewrote files under their names
// opens read-only and writable and answers as that code answered: live tails
// under the TAIL trailer, a partition whose fold was killed after its rename
// (the base holds its tail's records, the manifest still lists the tail), a
// tail no manifest lists and half a rewrite — testdata/legacy-tails, and in
// testdata/legacy-tails.json the answers the code that wrote it gave. The
// writable open sweeps the three files no view reads; the first drain and
// fold afterwards write names of their own and leave no file the manifest
// does not name.
func TestLegacyTailLayoutOpens(t *testing.T) {
	var fx struct {
		Folded, Live, Unlisted, NumRecords int
		Answers                            []struct {
			Query   int
			Variant string
			Results []Result
		}
	}
	b, err := os.ReadFile(filepath.Join("testdata", "legacy-tails.json"))
	if err == nil {
		err = json.Unmarshal(b, &fx)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	copyTreeForTest(t, filepath.Join("testdata", "legacy-tails"), dir)
	data := smallData(1000)
	variants := map[string]Variant{}
	for _, v := range reindexVariants {
		variants[v.String()] = v
	}
	answers := func(db *DB, how string) {
		t.Helper()
		if n := db.Info().NumRecords; n != fx.NumRecords {
			t.Fatalf("%s: NumRecords = %d, want %d", how, n, fx.NumRecords)
		}
		for _, a := range fx.Answers {
			res, err := db.Search(data[a.Query], 10, WithVariant(variants[a.Variant]))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, a.Results) {
				t.Fatalf("%s: record %d under %s answers\n%+v\nwant\n%+v", how, a.Query, a.Variant, res, a.Results)
			}
		}
	}

	before := listTree(t, dir)
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	answers(ro, "read-only")
	parts := ro.Index().Partitions()
	debris := []string{cluster.TailPath(parts.Paths[fx.Folded]), cluster.TailPath(parts.Paths[fx.Unlisted]), parts.Paths[fx.Live] + ".tmp"}
	ro.Close()
	if after := listTree(t, dir); after != before {
		t.Fatalf("a read-only open changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	answers(db, "writable")
	for _, f := range debris {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("the writable open left %s: %v", filepath.Base(f), err)
		}
	}
	// onlyTheView fails unless the store's directory holds exactly the files
	// the current view names.
	onlyTheView := func(when string) {
		t.Helper()
		ents, err := os.ReadDir(core.StoreDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		named := db.Index().Partitions().Files()
		for _, e := range ents {
			if !slices.Contains(named, filepath.Join(core.StoreDir(dir), e.Name())) {
				t.Fatalf("%s: %s is in the store and in no view", when, e.Name())
			}
		}
		if len(ents) != len(named) {
			t.Fatalf("%s: the store holds %d files, the view names %d", when, len(ents), len(named))
		}
	}
	onlyTheView("after the open")

	if _, err := db.Append(data[fx.NumRecords:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	onlyTheView("after a drain")
	if err := db.foldTailsForTest(); err != nil {
		t.Fatal(err)
	}
	onlyTheView("after a fold")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	disk, _ := whereRecords(t, re)
	if len(disk) != len(data) || re.Info().NumRecords != len(data) {
		t.Fatalf("reopened after the fold: %d records, counts %d; want %d", len(disk), re.Info().NumRecords, len(data))
	}
	if tails := re.Index().Partitions().Tails; tails != nil {
		t.Fatalf("tails %v outlived the fold of every tail", tails)
	}
}

// A drain of the legacy layout killed after its fold's rename leaves records
// in partition files while the WAL still holds them: testdata/legacy-tails-wal
// (tails rewritten in place with the new records, one base folded beside its
// old tail, the records after it in the WAL only), and in
// testdata/legacy-tails-wal.json the answers the code that wrote it gave.
// A read-only open, which could not replay, is refused and changes nothing:
// it would serve records the manifest does not count. A writable open lands
// the replay with a fold before it returns, so no record is in the files and
// the delta both and no answer holds a record twice, and it leaves a manifest
// in the current format.
func TestLegacyTailLayoutReplaysOnce(t *testing.T) {
	type answers struct {
		NumRecords int
		Answers    []struct {
			Query   int
			Variant string
			Results []Result
		}
	}
	var fx struct {
		Acked    int
		Writable answers
	}
	b, err := os.ReadFile(filepath.Join("testdata", "legacy-tails-wal.json"))
	if err == nil {
		err = json.Unmarshal(b, &fx)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	copyTreeForTest(t, filepath.Join("testdata", "legacy-tails-wal"), dir)
	data := smallData(1000)
	variants := map[string]Variant{}
	for _, v := range reindexVariants {
		variants[v.String()] = v
	}
	check := func(db *DB, how string, want answers) {
		t.Helper()
		if n := db.Info().NumRecords; n != want.NumRecords {
			t.Fatalf("%s: NumRecords = %d, want %d", how, n, want.NumRecords)
		}
		for _, a := range want.Answers {
			res, err := db.Search(data[a.Query], 10, WithVariant(variants[a.Variant]))
			if err == nil {
				err = wellFormed(res)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, a.Results) {
				t.Fatalf("%s: record %d under %s answers\n%+v\nwant\n%+v", how, a.Query, a.Variant, res, a.Results)
			}
		}
	}

	before := listTree(t, dir)
	if ro, err := Open(dir, WithReadOnly()); err == nil || !strings.Contains(err.Error(), "one writable open lands their replay") {
		if err == nil {
			ro.Close()
		}
		t.Fatalf("read-only open of a killed legacy drain returned %v, want the refusal", err)
	}
	if after := listTree(t, dir); after != before {
		t.Fatalf("a read-only open changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	if fx.Writable.NumRecords != fx.Acked {
		t.Fatalf("the fixture records %d records for the writable open, %d acked", fx.Writable.NumRecords, fx.Acked)
	}
	check(db, "writable", fx.Writable)
	disk, delta := whereRecords(t, db)
	for id := 0; id < fx.Acked; id++ {
		if _, onDisk := disk[id]; !onDisk || delta[id] {
			t.Fatalf("record %d on disk %v, in the delta %v; want on disk only", id, onDisk, delta[id])
		}
	}
	if len(disk) != fx.Acked || db.Index().PersistedRecords() != fx.Acked {
		t.Fatalf("%d records on disk, %d persisted; want %d", len(disk), db.Index().PersistedRecords(), fx.Acked)
	}
	re, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if re.Index().LegacyTails() {
		t.Fatal("the writable open left the manifest in the legacy layout")
	}
	check(re, "reopened", fx.Writable)
	re.Close()
	// The next drain's tails are named by a TLNM trailer.
	if _, err := db.Append(data[fx.Acked:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(core.IndexPathIn(dir))
	if err != nil {
		t.Fatal(err)
	}
	if files, _, _ := db.Index().TailStats(); files == 0 || !bytes.Contains(manifest, []byte("TLNM")) {
		t.Fatalf("after a drain into %d tails the manifest has no TLNM trailer", files)
	}
}
