package climber

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/dataset"
)

// listTree returns the sorted recursive listing of dir: one line per entry,
// relative path plus a trailing slash for directories.
func listTree(t *testing.T, dir string) string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		if d.IsDir() {
			rel += "/"
		}
		lines = append(lines, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// searchFingerprint renders the results of every variant for every query, so
// two databases can be compared for identical answers.
func searchFingerprint(t *testing.T, db *DB, queries [][]float64) string {
	t.Helper()
	var sb strings.Builder
	for qi, q := range queries {
		for _, v := range reindexVariants {
			res, err := db.Search(q, 10, WithVariant(v))
			if err != nil {
				t.Fatalf("search (query %d, variant %v): %v", qi, v, err)
			}
			fmt.Fprintf(&sb, "q%d %v %v\n", qi, v, res)
		}
	}
	return sb.String()
}

// A successful build leaves exactly the index file, the WAL and one flat
// directory of partition files, and never writes anything else on the way:
// the dataset is read where it is, so no staged dataset file (.clmb) exists even
// while the build runs. A watcher lists the tree for the whole build.
func TestBuildLeavesOnlyIndexWALAndPartitions(t *testing.T) {
	dir := t.TempDir()
	allowed := map[string]bool{".clmp": true, ".clms": true, ".clmw": true, ".tmp": true}
	stop, watched := make(chan struct{}), make(chan string, 1)
	go func() {
		bad := ""
		for {
			filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && !allowed[filepath.Ext(p)] {
					bad = p
				}
				return nil // files come and go under a running build
			})
			select {
			case <-stop:
				watched <- bad
				return
			default:
			}
		}
	}()
	buildAndClose(t, dir, smallData(6000), smallOpts()...)
	close(stop)
	if bad := <-watched; bad != "" {
		t.Fatalf("the build wrote %s; want partition, index and WAL files only", bad)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "cluster index.clms wal.clmw" {
		t.Fatalf("built directory holds %q, want cluster, index.clms and wal.clmw only", got)
	}
	parts, err := os.ReadDir(core.StoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("store holds %d files; the test needs a multi-partition build", len(parts))
	}
	for _, e := range parts {
		if e.IsDir() || filepath.Ext(e.Name()) != ".clmp" {
			t.Fatalf("store directory holds %q; want partition files only", e.Name())
		}
	}
}

// A build that fails must leave no file behind, wherever it fails: in the
// shuffle (the flush of partition 1 is broken by squatting a directory on its
// path, which fails os.Create whatever the privilege) or after it (a
// directory squatted on the index file fails SaveIndex's rename once every
// partition file is written).
func TestBuildFailureLeavesNoFiles(t *testing.T) {
	for name, squat := range map[string]func(dir string) string{
		"shuffle":    func(dir string) string { return cluster.PartitionPath(core.StoreDir(dir), "climber", 1) },
		"save-index": core.IndexPathIn,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(squat(dir), 0o755); err != nil {
				t.Fatal(err)
			}
			if db, err := Build(dir, smallData(1500), smallOpts()...); err == nil {
				db.Close()
				t.Fatal("build over a squatted path succeeded")
			}
			err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					t.Errorf("failed build left %s behind", p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A build refuses a reading that is not finite in float32 — a NaN, an
// infinity, or a float64 beyond ±math.MaxFloat32, which float32 storage
// rounds to an infinity — naming the record, and leaves no file. Before the
// partition writer checked, such records were built and queries ranked them
// as NaN and +Inf distances, out of order.
func TestBuildRefusesNonFiniteReadings(t *testing.T) {
	for name, bad := range map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "1e39": 1e39, "-1e39": -1e39} {
		t.Run(name, func(t *testing.T) {
			data := dataset.RandomWalk(64, 2000, 3)
			rows := make([][]float64, data.Len())
			for i := range rows {
				rows[i] = slices.Clone(data.Get(i))
			}
			rows[5][3] = bad
			dir := t.TempDir()
			db, err := Build(dir, rows, WithCapacity(500))
			if err == nil {
				db.Close()
				t.Fatal("a build with a reading not finite in float32 succeeded")
			}
			if !strings.Contains(err.Error(), "record 5") || !strings.Contains(err.Error(), "float32") {
				t.Fatalf("build error %q, want one naming record 5 and float32", err)
			}
			err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					t.Errorf("refused build left %s behind", p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A failed index save must not leave its temporary file behind: the compactor
// saves the index on every compaction, so a full disk would leave one per
// attempt. The rename is broken by squatting a directory on the index path;
// the write, by planting the temporary path as a link to /dev/full, which
// accepts the open and refuses every byte.
func TestFailedIndexSaveLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Build(dir, smallData(1500), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	skel, parts := db.Index().Skeleton(), db.Index().Partitions()

	squatted := filepath.Join(t.TempDir(), "index.clms")
	if err := os.Mkdir(squatted, 0o755); err != nil {
		t.Fatal(err)
	}
	before := listTree(t, filepath.Dir(squatted))
	if err := core.SaveSnapshot(skel, parts, squatted); err == nil {
		t.Fatal("index save over a directory succeeded")
	}
	if after := listTree(t, filepath.Dir(squatted)); after != before {
		t.Fatalf("failed index save changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	before = listTree(t, dir)
	if err := os.Symlink("/dev/full", core.IndexPathIn(dir)+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveSnapshot(skel, parts, core.IndexPathIn(dir)); err == nil {
		t.Fatal("index save into a full device succeeded")
	}
	if after := listTree(t, dir); after != before {
		t.Fatalf("failed index save changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if err := core.SaveSnapshot(skel, parts, core.IndexPathIn(dir)); err != nil {
		t.Fatalf("index save after the failure: %v", err)
	}
}

// A compaction whose partition rewrite fails must not leave its temporary
// file behind: a leftover would sit in the generation directory forever and,
// where it is the thing that failed, fail every later compaction too. The
// write is broken by planting the destination's temporary path as a link to
// /dev/full, which accepts the open and refuses every byte — first under the
// tail a drain writes, then under the base a fold writes.
func TestFailedCompactionLeavesNoTempFile(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	dir := t.TempDir()
	db, err := Build(dir, smallData(1500), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix := db.Index()
	// firstDest appends series and returns the lowest partition they go to:
	// the first file the drain writes.
	firstDest := func(fresh [][]float64) int {
		ids, err := db.Append(fresh)
		if err != nil {
			t.Fatal(err)
		}
		first := -1
		for i, id := range ids {
			if pid := ix.RouteNew(id, fresh[i]).Partition; first < 0 || pid < first {
				first = pid
			}
		}
		return first
	}

	fresh := smallData(1540)[1500:]
	base := ix.Partitions().Paths[firstDest(fresh[:20])]
	before := listTree(t, dir)
	if err := os.Symlink("/dev/full", cluster.TailPath(base)+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err == nil {
		t.Fatal("compaction into a full device succeeded")
	}
	if after := listTree(t, dir); after != before {
		t.Fatalf("failed compaction changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The failed drain left no copy of its records on disk, so the retry
	// drains as a first drain would: a tail beside each base it goes to, no
	// fold, and no other file.
	if err := db.Flush(); err != nil {
		t.Fatalf("compaction after the failure: %v", err)
	}
	tailLines := regexp.MustCompile(`(?m)^.*\.tail\n`)
	retried := listTree(t, dir)
	if after := tailLines.ReplaceAllString(retried, ""); after != before {
		t.Fatalf("compaction changed the directory listing:\nbefore:\n%s\nafter:\n%s", before, retried)
	}
	st := db.IngestStats()
	if st.DeltaRecords != 0 || st.CompactedSeries != 20 || st.Folds != 0 || st.TailFiles == 0 || st.TailFiles != len(tailLines.FindAllString(retried, -1)) {
		t.Fatalf("after the retry: %d delta records, %d compacted, %d folds, %d tails (%d listed); want 0, 20, 0 and every tail listed",
			st.DeltaRecords, st.CompactedSeries, st.Folds, st.TailFiles, len(tailLines.FindAllString(retried, -1)))
	}

	// A clean drain leaves tails; the fold that takes them in fails.
	firstDest(fresh[20:])
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	tailed := listTree(t, dir)
	pid := slices.IndexFunc(ix.Partitions().Tails, func(n int) bool { return n > 0 })
	if pid < 0 || !strings.Contains(tailed, ".tail") {
		t.Fatalf("a drain of 20 records left no tail:\n%s", tailed)
	}
	if err := os.Symlink("/dev/full", ix.Partitions().Paths[pid]+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := db.foldTailsForTest(); err == nil {
		t.Fatal("fold into a full device succeeded")
	}
	if after := listTree(t, dir); after != tailed {
		t.Fatalf("failed fold changed the directory:\nbefore:\n%s\nafter:\n%s", tailed, after)
	}
	if err := db.foldTailsForTest(); err != nil {
		t.Fatalf("fold after the failure: %v", err)
	}
	if after := foldedAsBuilt(listTree(t, dir)); after != before {
		t.Fatalf("a fold of every tail left more than the bases:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// foldedAsBuilt maps the name of each folded base in a listTree listing to
// the name the build gave its partition: climber-part00003.208.clmp, the
// base of 208 records, is listed as climber-part00003.clmp.
func foldedAsBuilt(tree string) string {
	return regexp.MustCompile(`(?m)\.[0-9]+\.clmp$`).ReplaceAllString(tree, ".clmp")
}

// Opening read-only must not write: not on a built directory, not on a
// reindexed one (whose build-time files the reindex deleted), not on a restored
// backup — the recursive listing is unchanged, and the open works with every
// write permission bit cleared.
func TestOpenReadOnlyWritesNothing(t *testing.T) {
	data := smallData(1200)

	built := filepath.Join(t.TempDir(), "built")
	buildAndClose(t, built, data, ingestOpts()...)

	reindexed := filepath.Join(t.TempDir(), "reindexed")
	db, err := Build(reindexed, data, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	backup := filepath.Join(t.TempDir(), "backup")
	if err := db.Backup(context.Background(), backup); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	restored := filepath.Join(t.TempDir(), "restored")
	copyTreeForTest(t, backup, restored)

	for name, dir := range map[string]string{"built": built, "reindexed": reindexed, "restored": restored} {
		t.Run(name, func(t *testing.T) {
			before := listTree(t, dir)
			check := func() {
				t.Helper()
				ro, err := Open(dir, append(ingestOpts(), WithReadOnly(), WithPartitionCacheBytes(1<<20))...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ro.Search(data[17], 3)
				if err != nil || len(res) == 0 || res[0].ID != 17 {
					t.Fatalf("read-only search: %+v, %v", res, err)
				}
				if err := ro.Close(); err != nil {
					t.Fatal(err)
				}
				if after := listTree(t, dir); after != before {
					t.Fatalf("read-only open changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
				}
			}
			check()

			// chmod -R a-w, restored afterwards so TempDir cleanup works.
			modes := map[string]fs.FileMode{}
			err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				info, err := d.Info()
				if err != nil {
					return err
				}
				modes[p] = info.Mode().Perm()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				for p, m := range modes {
					os.Chmod(p, m)
				}
			})
			for p, m := range modes {
				if err := os.Chmod(p, m&^0o222); err != nil {
					t.Fatal(err)
				}
			}
			check()
		})
	}
}

// Directories written before the store became one flat directory keep
// working: Open reads partition paths only from the manifest, so partitions
// spread over node00/ and node01/ open, search, reindex and back up with
// results identical to the flat layout's.
func TestOldNodeLayoutStillWorks(t *testing.T) {
	data := smallData(1200)
	queries := [][]float64{data[3], data[512], data[1100]}
	flat := filepath.Join(t.TempDir(), "flat")
	buildAndClose(t, flat, data, ingestOpts()...)

	// Re-create the old layout from a copy: move partition pid into
	// cluster/node<pid%2>/ and re-save the manifest over the moved paths.
	old := filepath.Join(t.TempDir(), "old")
	copyTreeForTest(t, flat, old)
	ro, err := Open(old, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	skel, parts := ro.Index().Skeleton(), *ro.Index().Partitions()
	ro.Close()
	parts.Paths = append([]string(nil), parts.Paths...)
	for pid, p := range parts.Paths {
		nodeDir := filepath.Join(filepath.Dir(p), fmt.Sprintf("node%02d", pid%2))
		if err := os.MkdirAll(nodeDir, 0o755); err != nil {
			t.Fatal(err)
		}
		parts.Paths[pid] = filepath.Join(nodeDir, filepath.Base(p))
		if err := os.Rename(p, parts.Paths[pid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.SaveSnapshot(skel, &parts, core.IndexPathIn(old)); err != nil {
		t.Fatal(err)
	}

	flatDB, err := Open(flat, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer flatDB.Close()
	oldDB, err := Open(old, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer oldDB.Close()
	if p := oldDB.Index().Partitions().Paths[1]; !strings.Contains(p, "node01") {
		t.Fatalf("test premise broken: old-layout partition 1 opened from %s", p)
	}
	want := searchFingerprint(t, flatDB, queries)
	if got := searchFingerprint(t, oldDB, queries); got != want {
		t.Fatalf("old layout answers differ from flat layout:\ngot:\n%s\nwant:\n%s", got, want)
	}

	backup := filepath.Join(t.TempDir(), "backup")
	if err := oldDB.Backup(context.Background(), backup); err != nil {
		t.Fatal(err)
	}
	bk, err := Open(backup, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	got := searchFingerprint(t, bk, queries)
	bk.Close()
	if got != want {
		t.Fatalf("backup of old layout answers differ from flat layout:\ngot:\n%s\nwant:\n%s", got, want)
	}

	for _, db := range []*DB{flatDB, oldDB} {
		if err := db.Reindex(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// The reindex wrote into the store and retired every old-layout file.
	named := oldDB.Index().Partitions().Files()
	err = filepath.WalkDir(core.StoreDir(old), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !slices.Contains(named, p) {
			err = fmt.Errorf("%s is in the store and in no view", p)
		}
		return err
	})
	if err != nil {
		t.Fatalf("after the reindex of the old layout: %v", err)
	}
	want = searchFingerprint(t, flatDB, queries)
	if got := searchFingerprint(t, oldDB, queries); got != want {
		t.Fatalf("reindexed old layout answers differ from reindexed flat layout:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
