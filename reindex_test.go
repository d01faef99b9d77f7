package climber

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"climber/internal/core"
)

// reindexVariants are the search algorithms the reindex and backup tests
// pin results across.
var reindexVariants = []Variant{KNN, Adaptive2X, Adaptive4X, ODSmallest}

// TestReindexRoundTrip is the tentpole's happy path: a reindex on a live
// database must preserve every record (built and appended), bump the
// generation, move the physical layout under gen-0001, survive a reopen
// from the MANIFEST pointer, and keep accepting appends afterwards.
func TestReindexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1200)
	db, err := Build(dir, data, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	extra := smallData(1240)[1200:]
	if _, err := db.Append(extra); err != nil {
		t.Fatal(err)
	}
	if g := db.Info().Generation; g != 0 {
		t.Fatalf("fresh database reports generation %d, want 0", g)
	}

	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := db.Info().Generation; g != 1 {
		t.Fatalf("generation = %d after reindex, want 1", g)
	}
	if n := db.Info().NumRecords; n != 1240 {
		t.Fatalf("NumRecords = %d after reindex, want 1240", n)
	}
	genRoot := filepath.Join(dir, "gen-0001")
	for _, p := range db.Index().Partitions().Paths {
		if rel, err := filepath.Rel(genRoot, p); err != nil || !filepath.IsLocal(rel) {
			t.Fatalf("partition %s not under %s after reindex", p, genRoot)
		}
	}

	// Every record — original and appended, the latter uncompacted at
	// reindex time — must still be findable by a self query.
	for _, i := range []int{0, 599, 1199} {
		res, err := db.Search(data[i], 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != i || res[0].Dist > 1e-4 {
			t.Fatalf("built record %d lost by reindex: %+v", i, res)
		}
	}
	for i, q := range extra {
		res, err := db.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != 1200+i || res[0].Dist > 1e-4 {
			t.Fatalf("appended record %d lost by reindex: %+v", 1200+i, res)
		}
	}

	// The retired generation's files are deleted once no reader holds them.
	db.waitCleanupForTest()
	if _, err := os.Stat(filepath.Join(dir, "index.clms")); !os.IsNotExist(err) {
		t.Fatalf("old generation skeleton still present after cleanup: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cluster")); !os.IsNotExist(err) {
		t.Fatalf("old generation partition tree still present after cleanup: %v", err)
	}

	// Appends keep working against the new generation.
	more := smallData(1250)[1240:]
	ids, err := db.Append(more)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 1240 {
		t.Fatalf("post-reindex append ID = %d, want 1240", ids[0])
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen resolves the MANIFEST pointer and replays the post-reindex WAL.
	re, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if g := re.Info().Generation; g != 1 {
		t.Fatalf("reopened generation = %d, want 1", g)
	}
	if n := re.Info().NumRecords; n != 1250 {
		t.Fatalf("reopened NumRecords = %d, want 1250", n)
	}
	res, err := re.Search(more[5], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 1245 || res[0].Dist > 1e-4 {
		t.Fatalf("post-reindex append lost by reopen: %+v", res)
	}
}

// TestCompactorRetargetsNewGeneration pins the refcount lifecycle and the
// compactor's retarget: a compaction right after the swap must drain into
// the NEW generation's partition files while a held reference keeps the old
// generation's files on disk, byte-for-byte unchanged; releasing the last
// reference triggers their deletion.
func TestCompactorRetargetsNewGeneration(t *testing.T) {
	dir := t.TempDir()
	db, err := Build(dir, smallData(1000), ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Hold the pre-reindex generation like an in-flight query would.
	g0 := db.Index().AcquireGeneration()
	oldPaths := append([]string(nil), g0.Parts.Paths...)
	oldBytes := make(map[string][]byte, len(oldPaths))
	for _, p := range oldPaths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		oldBytes[p] = b
	}

	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	extra := smallData(1030)[1000:]
	if _, err := db.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// The compaction must have landed in gen-0001's files...
	newParts := db.Index().Partitions()
	total := 0
	genRoot := filepath.Join(dir, "gen-0001")
	for pid, p := range newParts.Paths {
		if rel, err := filepath.Rel(genRoot, p); err != nil || !filepath.IsLocal(rel) {
			t.Fatalf("post-swap compaction target %s outside %s", p, genRoot)
		}
		total += newParts.Counts[pid]
	}
	if total != 1030 {
		t.Fatalf("new generation holds %d persisted records after flush, want 1030", total)
	}

	// ...and the held old generation must be byte-identical on disk.
	for _, p := range oldPaths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("old generation file vanished while referenced: %v", err)
		}
		if string(b) != string(oldBytes[p]) {
			t.Fatalf("old generation file %s mutated after swap", p)
		}
	}

	// Dropping the last reference releases the files.
	g0.Release()
	db.waitCleanupForTest()
	for _, p := range oldPaths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("old generation file %s survived release: %v", p, err)
		}
	}
	res, err := db.Search(extra[3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 1003 || res[0].Dist > 1e-4 {
		t.Fatalf("record appended after swap not served: %+v", res)
	}
}

// TestBackupRestoreRoundTrip backs a database up mid-ingest, destroys the
// live directory, restores from the backup, and pins bit-identical results
// (ID and distance) against the pre-backup golden for every search variant
// and a prefix query.
func TestBackupRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := smallData(1100)
	db, err := Build(dir, data[:1000], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[1000:1100]); err != nil {
		t.Fatal(err)
	}
	// Settle the delta so the golden and the restored database agree on
	// where each record physically lives (the backup flushes too).
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	queries := [][]float64{data[3], data[512], data[1050]}
	type key struct{ q, v int }
	golden := map[key][]Result{}
	goldenPrefix := make([][]Result, len(queries))
	for qi, q := range queries {
		for vi, v := range reindexVariants {
			res, err := db.Search(q, 10, WithVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			golden[key{qi, vi}] = res
		}
		res, err := searchPrefix(db, q[:32], 10)
		if err != nil {
			t.Fatal(err)
		}
		goldenPrefix[qi] = res
	}

	backupDir := filepath.Join(t.TempDir(), "backup")
	if err := db.Backup(context.Background(), backupDir); err != nil {
		t.Fatal(err)
	}
	// A second backup into the same populated directory must refuse.
	if err := db.Backup(context.Background(), backupDir); err == nil {
		t.Fatal("backup into a non-empty directory succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Destroy the live database; the backup is all that remains.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	// Restore = copy the self-contained backup tree to a fresh directory
	// (what climber-build -restore does) and open it.
	restored := filepath.Join(t.TempDir(), "restored")
	copyTreeForTest(t, backupDir, restored)
	re, err := Open(restored, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Info().NumRecords; n != 1100 {
		t.Fatalf("restored NumRecords = %d, want 1100", n)
	}
	for qi, q := range queries {
		for vi, v := range reindexVariants {
			res, err := re.Search(q, 10, WithVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, golden[key{qi, vi}], res, "variant", vi, qi)
		}
		res, err := searchPrefix(re, q[:32], 10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, goldenPrefix[qi], res, "prefix", 0, qi)
	}
	// The restored database is live: it accepts new writes.
	if _, err := re.Append(data[:1]); err != nil {
		t.Fatalf("restored database refused an append: %v", err)
	}
}

func assertSameResults(t *testing.T, want, got []Result, kind string, vi, qi int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s %d query %d: %d results, want %d", kind, vi, qi, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s %d query %d result %d: got %+v, want %+v", kind, vi, qi, i, got[i], want[i])
		}
	}
}

// copyTreeForTest recursively copies a directory (regular files only), the
// restore procedure of climber-build -restore.
func copyTreeForTest(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyTreeForTest(t, sp, dp)
			continue
		}
		b, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReindexReadOnlyAndClosed pins the error contract on databases that
// cannot rebuild.
func TestReindexReadOnlyAndClosed(t *testing.T) {
	dir := t.TempDir()
	buildAndClose(t, dir, smallData(600), ingestOpts()...)

	ro, err := Open(dir, append(ingestOpts(), WithReadOnly())...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Reindex(context.Background()); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only reindex returned %v, want ErrReadOnly", err)
	}
	ro.Close()

	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Reindex(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed reindex returned %v, want ErrClosed", err)
	}
}

// TestRepeatedReindex runs three consecutive rebuilds: each must advance the
// generation, relocate the layout, and preserve the record set — the stale-
// generation sweep at the next Open must not be needed for correctness.
func TestRepeatedReindex(t *testing.T) {
	dir := t.TempDir()
	data := smallData(900)
	db, err := Build(dir, data, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for round := 1; round <= 3; round++ {
		if err := db.Reindex(context.Background()); err != nil {
			t.Fatalf("reindex round %d: %v", round, err)
		}
		if g := db.Info().Generation; g != round {
			t.Fatalf("generation = %d after round %d", g, round)
		}
		if n := db.Info().NumRecords; n != 900 {
			t.Fatalf("NumRecords = %d after round %d, want 900", n, round)
		}
		res, err := db.Search(data[round*100], 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != round*100 || res[0].Dist > 1e-4 {
			t.Fatalf("round %d: self query lost: %+v", round, res)
		}
	}
	db.waitCleanupForTest()
	// Only the live generation directory remains.
	for _, stale := range []string{"gen-0001", "gen-0002"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("stale %s survived its cleanup: %v", stale, err)
		}
	}
	root, num, err := core.ActiveGeneration(dir)
	if err != nil {
		t.Fatal(err)
	}
	if num != 3 || root != filepath.Join(dir, "gen-0003") {
		t.Fatalf("MANIFEST resolves to (%s, %d), want gen-0003", root, num)
	}
}
