package climber

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"climber/internal/core"
)

// TestReindexCrashMatrix is the kill-anywhere consistency test: it
// enumerates every durability step of the reindex swap protocol (each
// fsync, each rename — the core.SetCrashStepHook instrumentation points),
// hard-kills a child process at each one, reopens the directory, and
// requires the recovered database to be EXACTLY the old generation or
// EXACTLY the new one — same SHA-256 over skeleton + every partition file,
// same search results, and a store holding exactly the files the manifest
// names — never a mix.
//
// The commit point is the rename of dir/index.clms, as for a drain: the hook
// fires before its step's operation, so a kill at or before "index-rename"
// must recover old, and a kill at any later step (the rename already
// applied) must recover new.
func TestReindexCrashMatrix(t *testing.T) {
	if os.Getenv("CLIMBER_CRASH_DIR") != "" {
		t.Skip("crash child process")
	}
	if testing.Short() {
		t.Skip("spawns one child process per protocol step")
	}

	// The base database every scenario starts from: built records plus a
	// flushed append batch folded into the partition bases (a reindex begins
	// by folding, and that has its own matrix: TestDrainCrashMatrix), WAL
	// empty, compactor parked (deterministic bytes; the rebuild is a pure
	// function of the record set).
	data := smallData(920)
	baseDir := filepath.Join(t.TempDir(), "base")
	db, err := Build(baseDir, data[:900], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[900:920]); err != nil {
		t.Fatal(err)
	}
	if err := db.foldTailsForTest(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{data[7], data[433], data[910]}

	// Recording run: reindex an in-process copy with a recording hook to
	// enumerate the protocol steps; its end state is golden-new. The
	// partition flush is pooled, so its steps arrive concurrently and in any
	// order among themselves.
	recDir := filepath.Join(t.TempDir(), "rec")
	copyTreeForTest(t, baseDir, recDir)
	var stepsMu sync.Mutex
	var steps []string
	core.SetCrashStepHook(func(step string) {
		stepsMu.Lock()
		steps = append(steps, step)
		stepsMu.Unlock()
	})
	rec, err := Open(recDir, ingestOpts()...)
	if err != nil {
		core.SetCrashStepHook(nil)
		t.Fatal(err)
	}
	err = rec.Reindex(context.Background())
	core.SetCrashStepHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(steps) < 8 {
		t.Fatalf("recorded only %d protocol steps: %v", len(steps), steps)
	}
	seen := map[string]bool{}
	for _, s := range steps {
		if seen[s] {
			t.Fatalf("protocol step %q fired twice; the kill matrix needs unique steps", s)
		}
		seen[s] = true
	}
	for _, required := range []string{"gen-dirs", "index-rename", "root-dir-sync"} {
		if !seen[required] {
			t.Fatalf("protocol step %q missing from recording: %v", required, steps)
		}
	}
	goldenNew := recoverFingerprint(t, recDir, queries)

	// golden-old: the base state pushed through the same recover pipeline.
	oldDir := filepath.Join(t.TempDir(), "old")
	copyTreeForTest(t, baseDir, oldDir)
	goldenOld := recoverFingerprint(t, oldDir, queries)
	if goldenOld == goldenNew {
		t.Fatal("test premise broken: old and new generations are indistinguishable")
	}

	// The matrix: one hard-killed child per step, strict old/new expectation.
	commit := slices.Index(steps, "index-rename")
	for i, step := range steps {
		t.Run(step, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "crash")
			copyTreeForTest(t, baseDir, dir)

			cmd := exec.Command(os.Args[0], "-test.run", "TestReindexCrashChild$", "-test.v")
			cmd.Env = append(os.Environ(),
				"CLIMBER_CRASH_DIR="+dir,
				"CLIMBER_CRASH_STEP="+step)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("child exited cleanly; step %q was never reached:\n%s", step, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("child failed to run: %v\n%s", err, out)
			}
			if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("child died of %v, want SIGKILL (it must not clean up):\n%s", err, out)
			}

			got := recoverFingerprint(t, dir, queries)
			want, wantName := goldenOld, "old"
			if i > commit {
				// The manifest's rename has been applied when these fire.
				want, wantName = goldenNew, "new"
			}
			if got != want {
				other := "new"
				if wantName == "new" {
					other = "old"
				}
				detail := "nor the " + other + " one — a MIXED state"
				if (wantName == "new" && got == goldenOld) || (wantName == "old" && got == goldenNew) {
					detail = "but the " + other + " one"
				}
				t.Errorf("kill at %q: recovered state is not the %s generation, %s\ngot:\n%s\nwant:\n%s",
					step, wantName, detail, got, want)
			}
		})
	}
}

// TestReindexCrashChild is the matrix's victim process: it opens the
// database named by CLIMBER_CRASH_DIR and reindexes with a hook that
// SIGKILLs the process immediately before CLIMBER_CRASH_STEP's durable
// operation executes. It only runs when spawned by TestReindexCrashMatrix.
func TestReindexCrashChild(t *testing.T) {
	dir := os.Getenv("CLIMBER_CRASH_DIR")
	step := os.Getenv("CLIMBER_CRASH_STEP")
	if dir == "" || step == "" {
		t.Skip("not a crash child")
	}
	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	core.SetCrashStepHook(func(s string) {
		if s == step {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; SIGKILL is not deliverable-to-self async-safe on all kernels without a beat
		}
	})
	err = db.Reindex(context.Background())
	// Reaching here means the step never fired; exit cleanly so the parent
	// reports it as a matrix hole.
	t.Logf("reindex finished without hitting step %q: err=%v", step, err)
}

// recoverFingerprint reopens dir (running crash recovery: the sweep of what
// the manifest does not name, WAL replay), verifies it serves queries and
// that the store holds exactly the files the manifest names, and returns a
// fingerprint of the recovered state: the search results for every variant
// plus a SHA-256 over the skeleton and every partition file, keyed by
// repo-relative path. Two directories with the same fingerprint hold the same
// logical AND physical database.
func recoverFingerprint(t *testing.T, dir string, queries [][]float64) string {
	t.Helper()
	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatalf("recovery open of %s: %v", dir, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "generation=%d records=%d\n", db.Info().Generation, db.Info().NumRecords)
	for qi, q := range queries {
		for _, v := range reindexVariants {
			res, err := db.Search(q, 10, WithVariant(v))
			if err != nil {
				db.Close()
				t.Fatalf("recovered search (query %d, variant %v): %v", qi, v, err)
			}
			fmt.Fprintf(&sb, "q%d v%v: %+v\n", qi, v, res)
		}
	}
	parts := append([]string(nil), db.Index().Partitions().Paths...)
	storeOnlyNamed(t, dir, db.Index().Partitions().Files())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	addFile := func(label, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("fingerprint %s (%s): %v", label, path, err)
		}
		fmt.Fprintf(h, "%s %d\n", label, len(b))
		h.Write(b)
	}
	addFile("skeleton", core.IndexPathIn(dir))
	rels := make([]string, len(parts))
	for i, p := range parts {
		rel, err := filepath.Rel(dir, p)
		if err != nil || !filepath.IsLocal(rel) {
			t.Fatalf("partition %s escapes the database dir", p)
		}
		rels[i] = rel
	}
	sort.Strings(rels)
	for _, rel := range rels {
		addFile(rel, filepath.Join(dir, rel))
	}
	fmt.Fprintf(&sb, "sha256=%s\n", hex.EncodeToString(h.Sum(nil)))
	return sb.String()
}

// storeOnlyNamed fails unless the store directory of dir holds exactly the
// files named.
func storeOnlyNamed(t *testing.T, dir string, named []string) {
	t.Helper()
	ents, err := os.ReadDir(core.StoreDir(dir))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var held []string
	for _, e := range ents {
		held = append(held, filepath.Join(core.StoreDir(dir), e.Name()))
	}
	var inStore []string
	for _, f := range named {
		if filepath.Dir(f) == core.StoreDir(dir) {
			inStore = append(inStore, f)
		}
	}
	slices.Sort(inStore)
	if !slices.Equal(held, inStore) {
		t.Fatalf("the store of %s holds\n%s\nthe manifest names there\n%s", dir, strings.Join(held, "\n"), strings.Join(inStore, "\n"))
	}
}

// drainCrashAppend is the batch whose drain the matrix kills; records
// 940..1019 of smallData(1040), appended to a base of 900 built and 40
// drained into tails.
const drainCrashBuilt, drainCrashDrained, drainCrashAcked, drainCrashTotal = 900, 940, 1020, 1040

// TestDrainCrashMatrix kills a drain at every durability step — each tail
// write and rename, each fold's write and rename, each folded tail's
// removal, the manifest's write, fsync and rename, the WAL reset (the
// core.CrashStep points) — and requires of the reopened database:
//
//   - every acked record is found exactly once by an exact scan (the
//     partition files, base and tail, hold no record twice; a record is in
//     the files or in the replayed delta, never in both);
//   - NumRecords is the base plus everything acked;
//   - no interrupted rewrite and no tail the manifest does not list is left
//     on disk;
//   - one more drain and a fold of every tail leave the directory byte for
//     byte what the same sequence leaves without the kill.
func TestDrainCrashMatrix(t *testing.T) {
	if os.Getenv("CLIMBER_CRASH_DIR") != "" {
		t.Skip("crash child process")
	}
	if testing.Short() {
		t.Skip("spawns one child process per drain step")
	}
	data := smallData(drainCrashTotal)
	baseDir := filepath.Join(t.TempDir(), "base")
	db, err := Build(baseDir, data[:drainCrashBuilt], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[drainCrashBuilt:drainCrashDrained]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.IngestStats().TailFiles == 0 {
		t.Fatal("test premise broken: the base state has no tail")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// finish is the rest of the sequence after the drain under test: one more
	// batch, drained and folded, and a clean close. It returns the
	// directory's fingerprint.
	finish := func(t *testing.T, db *DB, dir string) string {
		t.Helper()
		if _, err := db.Append(data[drainCrashAcked:]); err != nil {
			t.Fatal(err)
		}
		if err := db.foldTailsForTest(); err != nil {
			t.Fatal(err)
		}
		if n := db.Info().NumRecords; n != drainCrashTotal {
			t.Fatalf("NumRecords = %d at the end, want %d", n, drainCrashTotal)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return treeFingerprint(t, dir)
	}

	// Recording run: the uncrashed sequence, its drain's steps enumerated.
	recDir := filepath.Join(t.TempDir(), "rec")
	copyTreeForTest(t, baseDir, recDir)
	rec, err := Open(recDir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Append(data[drainCrashDrained:drainCrashAcked]); err != nil {
		t.Fatal(err)
	}
	var steps []string
	core.SetCrashStepHook(func(step string) { steps = append(steps, step) })
	err = rec.Flush()
	core.SetCrashStepHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	golden := finish(t, rec, recDir)
	seen := map[string]bool{}
	kinds := map[string]bool{}
	for _, s := range steps {
		if seen[s] {
			t.Fatalf("drain step %q fired twice; the kill matrix needs unique steps", s)
		}
		seen[s] = true
		kinds[strings.TrimRight(s, "-0123456789")] = true
	}
	for _, required := range []string{"tail-write", "tail-rename", "fold-write", "fold-rename", "tail-remove",
		"index-write", "index-fsync", "index-rename", "root-dir-sync", "wal-reset"} {
		if !kinds[required] {
			t.Fatalf("the recorded drain has no %q step: %v", required, steps)
		}
	}

	for _, step := range steps {
		t.Run(step, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "crash")
			copyTreeForTest(t, baseDir, dir)
			cmd := exec.Command(os.Args[0], "-test.run", "TestDrainCrashChild$", "-test.v")
			cmd.Env = append(os.Environ(), "CLIMBER_CRASH_DIR="+dir, "CLIMBER_CRASH_STEP="+step)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("child did not die (err %v); step %q was never reached:\n%s", err, step, out)
			}
			if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("child died of %v, want SIGKILL (it must not clean up):\n%s", err, out)
			}

			db, err := Open(dir, ingestOpts()...)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer db.Close()
			if tree := listTree(t, dir); strings.Contains(tree, ".clmp.tmp") || strings.Contains(tree, ".tail.tmp") {
				t.Fatalf("an interrupted rewrite survived the reopen:\n%s", tree)
			}
			parts := db.Index().Partitions()
			for pid := range parts.Paths {
				path, tail := parts.Tail(pid)
				if _, err := os.Stat(path); (err == nil) != (tail > 0) {
					t.Fatalf("partition %d: layout says %d tail records, tail file present: %v", pid, tail, err == nil)
				}
			}
			if n := db.Info().NumRecords; n != drainCrashAcked {
				t.Fatalf("NumRecords = %d after the kill, want %d", n, drainCrashAcked)
			}
			disk, delta := whereRecords(t, db) // fails on a record twice on disk
			for id := 0; id < drainCrashAcked; id++ {
				_, onDisk := disk[id]
				if !onDisk && !delta[id] {
					t.Fatalf("acked record %d is gone", id)
				}
				if onDisk && delta[id] {
					t.Fatalf("record %d is in the partition files and in the delta", id)
				}
			}
			if len(disk) > drainCrashAcked || len(delta) > drainCrashAcked-drainCrashDrained {
				t.Fatalf("%d records on disk, %d in the delta: more than were ever acked", len(disk), len(delta))
			}
			// Through the query path every record answers once.
			for _, id := range []int{3, drainCrashBuilt + 5, drainCrashDrained + 7, drainCrashAcked - 1} {
				res, err := db.Search(data[id], 10, WithVariant(ODSmallest))
				if err != nil {
					t.Fatal(err)
				}
				ids := map[int]bool{}
				for _, r := range res {
					if ids[r.ID] {
						t.Fatalf("query for record %d answers record %d twice: %+v", id, r.ID, res)
					}
					ids[r.ID] = true
				}
			}
			if got := finish(t, db, dir); got != golden {
				t.Fatalf("after one more drain and a fold the directory differs from the uncrashed run's:\ngot:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

// TestDrainCrashChild is TestDrainCrashMatrix's victim: it opens the
// database named by CLIMBER_CRASH_DIR, acks the batch, and drains it with a
// hook that SIGKILLs the process immediately before CLIMBER_CRASH_STEP.
func TestDrainCrashChild(t *testing.T) {
	dir := os.Getenv("CLIMBER_CRASH_DIR")
	step := os.Getenv("CLIMBER_CRASH_STEP")
	if dir == "" || step == "" {
		t.Skip("not a crash child")
	}
	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(smallData(drainCrashTotal)[drainCrashDrained:drainCrashAcked]); err != nil {
		t.Fatal(err)
	}
	core.SetCrashStepHook(func(s string) {
		if s == step {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {}
		}
	})
	err = db.Flush()
	t.Logf("drain finished without hitting step %q: err=%v", step, err)
}

// treeFingerprint is the listing of dir with a SHA-256 of every file.
func treeFingerprint(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	for _, rel := range strings.Split(listTree(t, dir), "\n") {
		if strings.HasSuffix(rel, "/") {
			fmt.Fprintf(&sb, "%s\n", rel)
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %d %x\n", rel, len(b), sha256.Sum256(b))
	}
	return sb.String()
}

// TestUpgradeCrashMatrix kills the writable open of testdata/legacy-gen at
// every step of its move to the one-store layout (core.UpgradeLayout: the
// save of dir/index.clms, the MANIFEST removal, the directory sync) and
// requires the next writable open to answer as the code that wrote the
// fixture did, on the one-store layout.
func TestUpgradeCrashMatrix(t *testing.T) {
	if os.Getenv("CLIMBER_CRASH_DIR") != "" {
		t.Skip("crash child process")
	}
	if testing.Short() {
		t.Skip("spawns one child process per upgrade step")
	}
	fx := readLegacyGen(t)
	recDir := filepath.Join(t.TempDir(), "rec")
	copyTreeForTest(t, filepath.Join("testdata", "legacy-gen"), recDir)
	var steps []string
	core.SetCrashStepHook(func(step string) { steps = append(steps, step) })
	rec, err := Open(recDir, ingestOpts()...)
	core.SetCrashStepHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"index-write", "index-fsync", "index-rename", "manifest-remove", "root-dir-sync"}
	if !slices.Equal(steps, want) {
		t.Fatalf("the upgrade's steps are %v, want %v", steps, want)
	}
	for _, step := range steps {
		t.Run(step, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "crash")
			copyTreeForTest(t, filepath.Join("testdata", "legacy-gen"), dir)
			cmd := exec.Command(os.Args[0], "-test.run", "TestUpgradeCrashChild$", "-test.v")
			cmd.Env = append(os.Environ(), "CLIMBER_CRASH_DIR="+dir, "CLIMBER_CRASH_STEP="+step)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("child did not die (err %v); step %q was never reached:\n%s", err, step, out)
			}
			if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("child died of %v, want SIGKILL (it must not clean up):\n%s", err, out)
			}
			db, err := Open(dir, ingestOpts()...)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer db.Close()
			answersAs(t, db, "recovered", fx.Writable)
			onlyOneStore(t, dir, db.Index().Partitions().Files())
		})
	}
}

// TestUpgradeCrashChild is TestUpgradeCrashMatrix's victim: it opens the
// directory named by CLIMBER_CRASH_DIR for writing with a hook that SIGKILLs
// the process immediately before CLIMBER_CRASH_STEP.
func TestUpgradeCrashChild(t *testing.T) {
	dir := os.Getenv("CLIMBER_CRASH_DIR")
	step := os.Getenv("CLIMBER_CRASH_STEP")
	if dir == "" || step == "" {
		t.Skip("not a crash child")
	}
	core.SetCrashStepHook(func(s string) {
		if s == step {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {}
		}
	})
	db, err := Open(dir, ingestOpts()...)
	t.Logf("open finished without hitting step %q: err=%v", step, err)
	if err == nil {
		db.Close()
	}
}

// An upgrade keeps a legacy manifest's format: testdata/legacy-tails-wal, a
// killed drain of the layout before names were never reused, moved under
// gen-0001 with a MANIFEST naming it, is killed right after the upgrade
// removed the pointer. The next writable open still lands the WAL's replay
// with a fold, as the code that wrote the fixture answered, and no record is
// read twice.
func TestUpgradeKeepsLegacyReplay(t *testing.T) {
	if os.Getenv("CLIMBER_CRASH_DIR") != "" {
		t.Skip("crash child process")
	}
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	var fx struct {
		Acked    int
		Writable struct {
			NumRecords int
			Answers    []struct {
				Query   int
				Variant string
				Results []Result
			}
		}
	}
	b, err := os.ReadFile(filepath.Join("testdata", "legacy-tails-wal.json"))
	if err == nil {
		err = json.Unmarshal(b, &fx)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	copyTreeForTest(t, filepath.Join("testdata", "legacy-tails-wal"), filepath.Join(dir, "gen-0001"))
	if err := os.Rename(filepath.Join(dir, "gen-0001", "wal.clmw"), walPath(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("gen-0001\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestUpgradeCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(), "CLIMBER_CRASH_DIR="+dir, "CLIMBER_CRASH_STEP=root-dir-sync")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || !ee.Sys().(syscall.WaitStatus).Signaled() {
		t.Fatalf("child was not killed at root-dir-sync (err %v):\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !os.IsNotExist(err) {
		t.Fatalf("test premise broken: the pointer survived the upgrade (%v)", err)
	}
	if ro, err := Open(dir, WithReadOnly()); err == nil {
		ro.Close()
		t.Fatal("a read-only open of the upgraded directory, its replay not landed, was not refused")
	}

	db, err := Open(dir, ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.Info().NumRecords; n != fx.Writable.NumRecords {
		t.Fatalf("NumRecords = %d, want %d", n, fx.Writable.NumRecords)
	}
	data := smallData(1000)
	variants := map[string]Variant{}
	for _, v := range reindexVariants {
		variants[v.String()] = v
	}
	for _, a := range fx.Writable.Answers {
		res, err := db.Search(data[a.Query], 10, WithVariant(variants[a.Variant]))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res, a.Results) {
			t.Fatalf("record %d under %s answers\n%+v\nwant\n%+v", a.Query, a.Variant, res, a.Results)
		}
	}
	disk, delta := whereRecords(t, db) // fails on a record twice on disk
	for id := 0; id < fx.Acked; id++ {
		if _, onDisk := disk[id]; !onDisk || delta[id] {
			t.Fatalf("record %d on disk %v, in the delta %v; want on disk only", id, onDisk, delta[id])
		}
	}
}
