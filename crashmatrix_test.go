package climber

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
// EXACTLY the new one — same SHA-256 over skeleton + MANIFEST + every
// partition file, same search results — never a mix.
//
// The commit point is the MANIFEST rename: the hook fires before its step's
// operation, so a kill at or before "manifest-rename" must recover old, and
// a kill at "root-dir-sync" or "commit-done" (the rename already applied)
// must recover new.
func TestReindexCrashMatrix(t *testing.T) {
	if os.Getenv("CLIMBER_CRASH_DIR") != "" {
		t.Skip("crash child process")
	}
	if testing.Short() {
		t.Skip("spawns one child process per protocol step")
	}

	// The base database every scenario starts from: built records plus a
	// flushed append batch, WAL empty, compactor parked (deterministic
	// bytes; the rebuild is a pure function of the record set).
	data := smallData(920)
	baseDir := filepath.Join(t.TempDir(), "base")
	db, err := Build(baseDir, data[:900], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[900:920]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
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
	rec.waitCleanupForTest()
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
	for _, required := range []string{"gen-dirs", "index-rename", "manifest-rename", "commit-done"} {
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
	for _, step := range steps {
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
			if step == "root-dir-sync" || step == "commit-done" {
				// The MANIFEST rename has been applied when these fire.
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

// recoverFingerprint reopens dir (running crash recovery: manifest pointer
// resolution, stale-generation sweep, WAL replay), verifies it serves
// queries, and returns a fingerprint of the recovered state: the search
// results for every variant plus a SHA-256 over the active generation's
// skeleton, MANIFEST, and every partition file, keyed by repo-relative
// path. Two directories with the same fingerprint hold the same logical
// AND physical database.
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	root, _, err := core.ActiveGeneration(dir)
	if err != nil {
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
	if b, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err == nil {
		fmt.Fprintf(h, "MANIFEST %q\n", b)
	} else if os.IsNotExist(err) {
		fmt.Fprintf(h, "MANIFEST absent\n")
	} else {
		t.Fatal(err)
	}
	addFile("skeleton", core.IndexPathIn(root))
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
