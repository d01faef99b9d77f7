package climber

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"climber/internal/cluster"
	"climber/internal/core"
	"climber/internal/storage"
)

// reindexVariants are the search algorithms the reindex and backup tests
// pin results across.
var reindexVariants = []Variant{KNN, Adaptive2X, Adaptive4X, ODSmallest}

// TestReindexRoundTrip is the tentpole's happy path: a reindex on a live
// database must preserve every record (built and appended), bump the
// generation, write new partition files under the -g1- stem into the store,
// survive a reopen from dir/index.clms, and keep accepting appends
// afterwards.
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
	oldFiles := db.Index().Partitions().Files()

	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := db.Info().Generation; g != 1 {
		t.Fatalf("generation = %d after reindex, want 1", g)
	}
	if n := db.Info().NumRecords; n != 1240 {
		t.Fatalf("NumRecords = %d after reindex, want 1240", n)
	}
	for _, p := range db.Index().Partitions().Paths {
		if filepath.Dir(p) != core.StoreDir(dir) || !strings.HasPrefix(filepath.Base(p), "climber-g1-part") {
			t.Fatalf("partition %s is not a -g1- file of the store %s after reindex", p, core.StoreDir(dir))
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

	// The replaced view's files are deleted at the swap, since no reader
	// holds them.
	for _, p := range oldFiles {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("old generation file %s still present after the swap: %v", p, err)
		}
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

	// Reopen reads dir/index.clms and replays the post-reindex WAL.
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

	// The compaction must have landed in the reindex's -g1- files...
	newParts := db.Index().Partitions()
	total := 0
	for pid, p := range newParts.Paths {
		if filepath.Dir(p) != core.StoreDir(dir) || !strings.HasPrefix(filepath.Base(p), "climber-g1-part") {
			t.Fatalf("post-swap compaction target %s is not a -g1- file of the store", p)
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

	// Dropping the last reference releases the files, on the goroutine the
	// swap left waiting for it.
	g0.Release()
	for _, p := range oldPaths {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, err := os.Stat(p); os.IsNotExist(err) {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("old generation file %s survived release: %v", p, err)
			}
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
// generation, write new files, and preserve the record set, and the store
// must hold the last view's files and nothing else — the sweep at the next
// Open must not be needed for that.
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
	// No file of rounds 0-2 remains: the store lists the view's files only.
	named := db.Index().Partitions().Files()
	for _, p := range named {
		if !strings.HasPrefix(filepath.Base(p), "climber-g3-part") {
			t.Fatalf("round 3 view names %s", p)
		}
	}
	storeOnlyNamed(t, dir, named)
}

// reindexArtifacts builds a fixed database at the given worker count (the
// store's pool and the skeleton loops both), appends a batch, flushes it into
// the partition files, reindexes, and returns a name -> SHA-256 map of what
// the reindex wrote: the skeleton encoding, the index file it saved
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
	out["index.clms"] = hashFile(core.IndexPathIn(db.dir))
	for _, p := range db.Index().Partitions().Paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := storage.Reformat(raw, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Keyed by the name the build gives the partition: climber-g1-part00003.clmp
		// is climber-part00003.clmp.
		asBuilt := strings.Replace(filepath.Base(p), "-g1-", "-", 1)
		out["partition/"+asBuilt] = hash(v2)
		out["summarized/"+asBuilt] = hash(raw)
	}
	return out
}

// goldenReindexArtifacts are the hashes of reindexArtifacts recorded at commit
// 1877861 — the last one whose reindex was a serial re-implementation of the
// construction pipeline. They are the proof that making reindex a caller of
// the one pipeline changed no stored byte. Since partition format version 3
// the "partition/" hashes are of each file's version-2 form
// (storage.Reformat to version 2) — unchanged, so the summary section moved
// no record byte — and the "summarized/" ones, recorded again when format
// version 4 doubled the summary bytes per record, are of the whole files.
// The "index.clms" hash was recorded again when
// a reindex began to write its files into the store under the -g1- stem,
// because the paths the manifest stores changed; its skeleton did not.
var goldenReindexArtifacts = map[string]string{
	"index.clms":                        "6c06ce8a3e968ffbc2417b0c80bfe3b37a488e77500eecd8c69a43c94dd3a17a",
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
	"summarized/climber-part00000.clmp": "74522a16242e3ec1742a240f3c9a792a09fe1e4b6fb8639129200e4379b4edf2",
	"summarized/climber-part00001.clmp": "cedad73bd2ef63f39bac88fe6dee8beb1f0296e35505fe040a2135a4ecab8c67",
	"summarized/climber-part00002.clmp": "790057ab00af4c8b0f1ae25270b732d0d9b1893d06787d4385d0110ea97678fc",
	"summarized/climber-part00003.clmp": "025bb59a19429caf3683db929f9988310eb7921c028451df071439178faf1c42",
	"summarized/climber-part00004.clmp": "0eec0f655b05bd8810758e0c5029f7e509c4b4e8f80c350a6bd7883e61a0aa7b",
	"summarized/climber-part00005.clmp": "8de21e9d1eabd52aaa7b20c7767f16568d0e9fdf213a365010ebf77ff7d40629",
	"summarized/climber-part00006.clmp": "4518e8285ebea58b5fbbc2e12d50f381dca189f56d4860db8eb9aeffa93b6fde",
	"summarized/climber-part00007.clmp": "0c7894dfe698f116709415ae4b69d8319ac79d33b4e8a9e772661fe3c0d4bef2",
	"summarized/climber-part00008.clmp": "e4831a3839feb03de5054a7a4eb3506e4835f5c1220653b0a17c7a87697e60f0",
	"summarized/climber-part00009.clmp": "66153feed5494e84f601466e7df8121628202ced1f13aa3a3dbac7a549a433e6",
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

// legacyGen is testdata/legacy-gen.json: what the code that wrote
// testdata/legacy-gen answered on its read-only and on its writable open.
// The directory is the layout where each reindex wrote a gen-NNNN directory:
// a build of Built records and two reindexes, so MANIFEST names gen-0002,
// the records up to Acked drained into tails under gen-0002, and gen-0001
// left whole by a cleanup that never ran.
type legacyGen struct {
	Built, Acked       int
	ReadOnly, Writable legacyGenOpen
}

type legacyGenOpen struct {
	Info    Info
	Answers []struct {
		Query   int
		Variant string
		Results []Result
	}
}

func readLegacyGen(t *testing.T) legacyGen {
	t.Helper()
	var fx legacyGen
	b, err := os.ReadFile(filepath.Join("testdata", "legacy-gen.json"))
	if err == nil {
		err = json.Unmarshal(b, &fx)
	}
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// answersAs fails unless db reports want's Info and gives its answers.
func answersAs(t *testing.T, db *DB, how string, want legacyGenOpen) {
	t.Helper()
	if info := db.Info(); info != want.Info {
		t.Fatalf("%s: Info = %+v, want %+v", how, info, want.Info)
	}
	data := smallData(want.Info.NumRecords)
	variants := map[string]Variant{}
	for _, v := range reindexVariants {
		variants[v.String()] = v
	}
	for _, a := range want.Answers {
		res, err := db.Search(data[a.Query], 10, WithVariant(variants[a.Variant]))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res, a.Results) {
			t.Fatalf("%s: record %d under %s answers\n%+v\nwant\n%+v", how, a.Query, a.Variant, res, a.Results)
		}
	}
}

// onlyOneStore fails unless dir holds index.clms, wal.clmw and the files the
// manifest names, and no gen-NNNN directory holds a file.
func onlyOneStore(t *testing.T, dir string, named []string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !os.IsNotExist(err) {
		t.Fatalf("MANIFEST is still there (%v)", err)
	}
	want := append([]string{core.IndexPathIn(dir), walPath(dir)}, named...)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !slices.Contains(want, p) {
			err = fmt.Errorf("%s is in the directory and the manifest does not name it", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A directory on the layout where each reindex wrote a gen-NNNN directory
// opens as the code that wrote it answered: read-only without a change, and
// writable with its manifest moved to dir/index.clms and the MANIFEST
// pointer, the other generation and the generation's own index.clms gone.
// The next reindex writes into the store, so after it and a reopen the
// directory is the one-store layout.
func TestLegacyGenerationLayoutOpens(t *testing.T) {
	fx := readLegacyGen(t)
	dir := filepath.Join(t.TempDir(), "db")
	copyTreeForTest(t, filepath.Join("testdata", "legacy-gen"), dir)

	before := treeFingerprint(t, dir)
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	answersAs(t, ro, "read-only", fx.ReadOnly)
	ro.Close()
	if after := treeFingerprint(t, dir); after != before {
		t.Fatalf("a read-only open changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	answersAs(t, db, "writable", fx.Writable)
	if fx.Writable.Info.Generation != 2 {
		t.Fatalf("the fixture records generation %d, want 2", fx.Writable.Info.Generation)
	}
	onlyOneStore(t, dir, db.Index().Partitions().Files())

	// A reindex killed mid-flush leaves its files in the store, a directory
	// that holds no file of this view: the next writable open sweeps them.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(core.StoreDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	killed := cluster.PartitionPath(core.StoreDir(dir), cluster.GenerationName("climber", 3), 0)
	for _, f := range []string{killed, killed + ".tmp"} {
		if err := os.WriteFile(f, []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if db, err = Open(dir, ingestOpts()...); err != nil {
		t.Fatal(err)
	}
	onlyOneStore(t, dir, db.Index().Partitions().Files())
	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info := re.Info(); info.Generation != 3 || info.NumRecords != fx.Acked {
		t.Fatalf("after a reindex and a reopen: generation %d, %d records; want 3 and %d", info.Generation, info.NumRecords, fx.Acked)
	}
	onlyOneStore(t, dir, re.Index().Partitions().Files())
	for _, p := range re.Index().Partitions().Files() {
		if filepath.Dir(p) != core.StoreDir(dir) {
			t.Fatalf("after a reindex the manifest names %s, outside the store", p)
		}
	}
}

// A reindex cancelled mid-rebuild, after its shuffle wrote the new files,
// leaves the store listing the view's files only, and the next reindex,
// which writes the same names, runs to completion.
func TestReindexCancelledLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	data := smallData(900)
	db, err := Build(dir, data, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	core.SetCrashStepHook(func(step string) {
		if step == "gen-dir-sync" {
			cancel()
		}
	})
	err = db.Reindex(ctx)
	core.SetCrashStepHook(nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("reindex cancelled mid-rebuild returned %v, want context.Canceled", err)
	}
	storeOnlyNamed(t, dir, db.Index().Partitions().Files())
	if g := db.Info().Generation; g != 0 {
		t.Fatalf("generation %d after a cancelled reindex, want 0", g)
	}
	if err := db.Reindex(context.Background()); err != nil {
		t.Fatal(err)
	}
	storeOnlyNamed(t, dir, db.Index().Partitions().Files())
	if info := db.Info(); info.Generation != 1 || info.NumRecords != len(data) {
		t.Fatalf("after the completed reindex: generation %d, %d records; want 1 and %d", info.Generation, info.NumRecords, len(data))
	}
	res, err := db.Search(data[123], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].ID != 123 || res[0].Dist > 1e-4 {
		t.Fatalf("self query after the reindex: %+v", res)
	}
}

// A view pinned across a reindex commit stays whole: a record appended
// during the rebuild is answered, by a query pinned to the old view before
// the commit and finishing after it, from the old view's delta, and by a
// query after the commit from the new view's delta, re-routed under the new
// skeleton.
func TestViewPinnedAcrossReindexCommitStaysWhole(t *testing.T) {
	dir := t.TempDir()
	data := smallData(901)
	db, err := Build(dir, data[:900], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	q := data[900]
	opts := core.SearchOptions{K: 5, Variant: core.VariantAdaptive4X}

	// The rebuild appends q once its files are written, and waits until a
	// query has pinned the old view before it goes on to the commit.
	appended, pinned := make(chan int, 1), make(chan struct{})
	core.SetCrashStepHook(func(step string) {
		if step != "gen-dir-sync" {
			return
		}
		ids, err := db.Append([][]float64{q})
		if err != nil {
			t.Error(err)
			ids = []int{-1}
		}
		appended <- ids[0]
		<-pinned
	})
	defer core.SetCrashStepHook(nil)
	reindexed := make(chan error, 1)
	go func() { reindexed <- db.Reindex(context.Background()) }()
	id := <-appended

	before, err := db.Index().Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	waited := false
	got, err := db.Index().Query(context.Background(), q, opts, func(s core.Snapshot) bool {
		if !waited && !s.Final {
			waited = true
			close(pinned)
			if err := <-reindexed; err != nil {
				t.Error(err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !waited {
		t.Fatal("the query ended before the reindex could commit under it")
	}
	if g := db.Info().Generation; g != 1 {
		t.Fatalf("generation %d after the reindex, want 1", g)
	}
	if !slices.Equal(got.Results, before.Results) {
		t.Fatalf("the query pinned across the commit answered\n%v\nwant\n%v", got.Results, before.Results)
	}
	for name, res := range map[string]*core.SearchResult{"pinned": got, "old view": before} {
		if len(res.Results) == 0 || res.Results[0].ID != id || res.Results[0].Dist > 1e-4 || res.Stats.DeltaScanned == 0 {
			t.Fatalf("%s query: %+v, want record %d at distance 0 from the delta", name, res, id)
		}
	}

	after, err := db.Index().Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Results) == 0 || after.Results[0].ID != id || after.Results[0].Dist > 1e-4 || after.Stats.DeltaScanned == 0 {
		t.Fatalf("query after the commit: %+v, want record %d at distance 0 from the new view's delta", after, id)
	}
	if n := db.Index().Delta().Len(); n != 1 {
		t.Fatalf("the new view's delta holds %d records, want the 1 appended during the rebuild", n)
	}
}
