package climber

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"climber/internal/core"
	"climber/internal/storage"
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

// reindexArtifacts builds a fixed database at the given worker count (the
// store's pool and the skeleton loops both), appends a batch, flushes it into
// the partition files, reindexes, and returns a name -> SHA-256 map of what
// the reindex wrote: the skeleton encoding, the generation's index file
// (partition paths in it are relative, so it is comparable across
// directories) and every partition file.
func reindexArtifacts(t *testing.T, workers int) map[string]string {
	t.Helper()
	data := smallData(1240)
	db, err := Build(t.TempDir(), data[:1200], ingestOpts(WithBuildWorkers(workers))...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Append(data[1200:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	hashFile := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return hash(raw)
	}
	out := make(map[string]string)
	var buf bytes.Buffer
	if err := db.Index().Skeleton().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out["skeleton"] = hash(buf.Bytes())
	out["index.clms"] = hashFile(core.IndexPathIn(db.activeRoot()))
	for _, p := range db.Index().Partitions().Paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := storage.WithoutSummaries(raw)
		if err != nil {
			t.Fatal(err)
		}
		out["partition/"+filepath.Base(p)] = hash(v2)
		out["summarized/"+filepath.Base(p)] = hash(raw)
	}
	return out
}

// goldenReindexArtifacts are the hashes of reindexArtifacts recorded at commit
// 1877861 — the last one whose reindex was a serial re-implementation of the
// construction pipeline. They are the proof that making reindex a caller of
// the one pipeline changed no stored byte. Since partition format version 3
// the "partition/" hashes are of each file's version-2 form
// (storage.WithoutSummaries) — unchanged, so the summary section moved no
// record byte — and the "summarized/" ones, recorded when the section was
// added, are of the whole files.
var goldenReindexArtifacts = map[string]string{
	"index.clms":                        "081f2aca3efdbb805a397848a428b4de55acfca171529136a397f43e609cb995",
	"partition/climber-part00000.clmp":  "e950447dfa366cee1158fa4e9ed63ad57b3f43c3a49b701a09f71b0d8f5fc664",
	"partition/climber-part00001.clmp":  "0f2ea4dfd3672807ea707b99c39bffeaffb636b72d51f859202735573306eb65",
	"partition/climber-part00002.clmp":  "3207a2dd379acf94368c20d10f9d670982cfccd34b4af4442f1dbb0101ca1f8b",
	"partition/climber-part00003.clmp":  "a5a43cae340ade53006248eb2415637bc2837b1d10c4140f13ea8bce89adcdab",
	"partition/climber-part00004.clmp":  "0f4965d7ac3c22fd5d972d83a5201411fe52a054118bd213a4514ce851815ba3",
	"partition/climber-part00005.clmp":  "1c4994795e969e68d04189840ae67fab17a6e154ee474195d133bed5e2fdbeed",
	"partition/climber-part00006.clmp":  "5b3fb22366ee5a3428ee5afc5bf294bf878d5d739b7aa5f4d4a46c99f9bf379f",
	"partition/climber-part00007.clmp":  "253f89db6aaf54bd0105dc5370f8b9f7c5301fcba3d5704cff577ea39d488942",
	"partition/climber-part00008.clmp":  "9f54596d1e64ce318f098502dae43771cad91a654017f225ffce1128c63cd11a",
	"partition/climber-part00009.clmp":  "ab386ee6453d9e4c17992a331f2d909c6c331d3426b8874e7a8344be2ebf096d",
	"summarized/climber-part00000.clmp": "c06af83b97abfd77c6062024047943f2a67371c86f3b0329567780458d3387bb",
	"summarized/climber-part00001.clmp": "d32aa4363a06b52b56ce03627c89f6a77c53abb9e8863f35ea9b6f6b42a72d85",
	"summarized/climber-part00002.clmp": "7dea5cef7926e5333366fa09b6320a2e249e6b139377f3f6a5c69e4042f7d177",
	"summarized/climber-part00003.clmp": "0333a91480a4be67e45ef0e40e1f5502637363a0f6dd7ddbb4386d8f953c93ad",
	"summarized/climber-part00004.clmp": "fca4cacfdf5d989b3bb56749e65f748dfda06461157d8c3350daec110bc123e1",
	"summarized/climber-part00005.clmp": "41009981b07c2ba10a99563892f1863191e77455132720ceacd77924012b3ed5",
	"summarized/climber-part00006.clmp": "1d9fd8184442ec4d5925523c15e49d09d9de982ab160a90fc3203fab7497afee",
	"summarized/climber-part00007.clmp": "36b3b99a2ad38e99d6ba16c9b3c4c0b0f4827a86eaa6bb5f9fe537f6a4ec3fcb",
	"summarized/climber-part00008.clmp": "043cfb66b88b394c7f791279a735d2ade5b3613be395a1e9b5ab4e24ed411941",
	"summarized/climber-part00009.clmp": "6e92f1a20b83fb536e5c6e3f8fbbfde60a60843e8aa3aca9749b1a07d3aa7dec",
	"skeleton":                          "5907d1a2295b2d123662adf3ca23dabca78185101b780529ff9284a2e7692914",
}

// TestReindexBitIdentical pins a reindex as an absolute, like
// TestParallelBuildBitIdentical pins a build: at any worker count the new
// generation's skeleton, index file and every partition file hash to the
// checked-in goldens. The per-record sample, the per-record tie-break and the
// sorted flush are all pure functions of (seed, id, values), so neither the
// layout of the old partitions nor goroutine scheduling may leak into the
// bytes. CI runs this under -race, which makes it the data-race probe for the
// reindex path.
func TestReindexBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		got := reindexArtifacts(t, workers)
		if len(got) != len(goldenReindexArtifacts) {
			t.Fatalf("workers=%d produced %d artefacts, golden reindex has %d", workers, len(got), len(goldenReindexArtifacts))
		}
		for name, h := range goldenReindexArtifacts {
			if got[name] != h {
				t.Errorf("workers=%d: artefact %s = %s, golden %s", workers, name, got[name], h)
			}
		}
	}
}
