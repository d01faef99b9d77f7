package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"climber/internal/cluster"
	"climber/internal/storage"
)

// This file is the generation subsystem behind online reindex: a database
// directory holds one *active generation* — a skeleton file plus partition
// files — named by a tiny fsynced MANIFEST pointer file. Reindex builds a
// complete new generation in a sibling gen-NNNN directory and commits it by
// atomically renaming the MANIFEST; readers that were mid-query keep a
// refcounted handle on the old generation until they finish, exactly like
// readers of a path-copying persistent data structure keep the old version.
//
// On-disk layout:
//
//	dir/MANIFEST          names the active generation ("gen-0007"); absent
//	                      for a database still on its build-time layout
//	                      (generation 0: index.clms + cluster/ files)
//	dir/index.clms        generation 0 skeleton + partition manifest
//	dir/cluster/          generation 0 partition files
//	dir/gen-NNNN/         generation N root: its own index.clms and
//	                      partition files, side by side
//	dir/wal.clmw          the write-ahead log, shared across generations
//
// The partition manifest inside index.clms stores paths relative to the
// generation root (see SaveSnapshot), so a generation directory — and a
// backup hard-linked from one — is relocatable as a unit. Readers take
// partition paths only from that manifest, which is why directories written
// by earlier layouts (partitions under node00/, node01/, ...) keep opening.

// IndexPathIn returns the skeleton/manifest file path of the generation
// rooted at genRoot. Generation 0's root is the database directory itself.
//
//climber:genpath
func IndexPathIn(genRoot string) string { return filepath.Join(genRoot, "index.clms") }

// GenDir returns the root directory of generation n under the database
// directory. n must be positive; generation 0 is the database directory.
//
//climber:genpath
func GenDir(dir string, n int) string { return filepath.Join(dir, genName(n)) }

// StoreDir returns the directory holding generation 0's partition files: one
// flat directory beside dir/index.clms, so a retired generation 0 is removed
// as a unit without touching the WAL, the MANIFEST or its gen-NNNN siblings.
func StoreDir(dir string) string { return filepath.Join(dir, "cluster") }

// genName formats a generation directory name.
//
//climber:genpath
func genName(n int) string { return fmt.Sprintf("gen-%04d", n) }

// manifestPath returns the MANIFEST pointer file path.
//
//climber:genpath
func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST") }

// Generation is one immutable view of the index: the skeleton, the
// partition files it references, and the delta of appends routed under that
// skeleton. Queries acquire a view for their whole lifetime, so neither a
// drain nor a reindex changes what one query observes: both build the next
// view beside the current one and publish it with SwapGeneration. The
// refcount tells the swapper when the last reader of a replaced view is gone
// and the files only it named may be deleted.
type Generation struct {
	// Skel and Parts are immutable: no file Parts names changes under its
	// name, and a drain that lands records publishes a new view naming the
	// files it wrote.
	Skel  *Skeleton
	Parts *cluster.PartitionSet

	// delta is the in-memory index of appends routed under this
	// generation's skeleton but not yet compacted into its partition files.
	// It holds no record its files hold: a drain publishes the files it wrote
	// with a delta that lacks their records.
	deltaMu sync.RWMutex
	delta   DeltaSource

	// refs counts live handles: one base reference held by the Index while
	// the generation is current, plus one per in-flight query. drained
	// closes when the count first reaches zero — after the generation has
	// been swapped out and its last reader finished.
	refs      atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}
}

// NewGeneration wraps a skeleton and partition set as a generation holding
// its base reference.
func NewGeneration(skel *Skeleton, parts *cluster.PartitionSet) *Generation {
	g := &Generation{Skel: skel, Parts: parts, drained: make(chan struct{})}
	g.refs.Store(1)
	return g
}

// Release drops one reference. When the last one goes — possible only after
// SwapGeneration released the base reference — drained is closed.
func (g *Generation) Release() {
	if g.refs.Add(-1) == 0 {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// SetDelta installs (or, with nil, removes) the generation's delta source.
func (g *Generation) SetDelta(d DeltaSource) {
	g.deltaMu.Lock()
	g.delta = d
	g.deltaMu.Unlock()
}

// Delta returns the generation's delta source, or nil.
func (g *Generation) Delta() DeltaSource {
	g.deltaMu.RLock()
	d := g.delta
	g.deltaMu.RUnlock()
	return d
}

// AcquireGeneration returns the current generation with a reference held;
// the caller must Release it. The load-increment-recheck loop makes the
// acquisition safe against a concurrent swap: if the generation changed
// under us, the speculative reference is returned and the load retried.
func (ix *Index) AcquireGeneration() *Generation {
	for {
		g := ix.gen.Load()
		g.refs.Add(1)
		if ix.gen.Load() == g {
			return g
		}
		g.Release()
	}
}

// SwapGeneration atomically publishes ng, made durable by the caller, as the
// current view and retires the view it replaces: once that view and every
// view published before it are released, the files it names and ng does not
// go (see retire) — at once when no query holds them, else on a goroutine of
// their own, unless the index was closed by then; the returned channel
// closes then. Callers must serialise
// SwapGeneration with every write path (climber.DB runs it under the
// ingestion semaphore).
func (ix *Index) SwapGeneration(ng *Generation) <-chan struct{} {
	old := ix.gen.Swap(ng)
	prev, done := ix.retired, make(chan struct{})
	ix.retired = done
	old.Release()
	retire := func() {
		<-old.drained
		if prev != nil {
			<-prev
		}
		ix.UnlessClosed(func() { ix.retire(old, ng) })
		close(done)
	}
	if closed(old.drained) && (prev == nil || closed(prev)) {
		retire()
	} else {
		go retire()
	}
	return done
}

// Close ends the removal of retired files once a removal under way is done:
// a retirement still waiting for a reader removes nothing, and leaves its
// files to the next writable open (SweepPartitionFiles,
// CleanStaleGenerations).
func (ix *Index) Close() { ix.UnlessClosed(func() { ix.closed = true }) }

// UnlessClosed runs fn, a removal of retired files, unless the index is
// closed, and holds Close off until fn returns.
func (ix *Index) UnlessClosed(fn func()) {
	ix.retireMu.Lock()
	defer ix.retireMu.Unlock()
	if !ix.closed {
		fn()
	}
}

// closed reports whether c is closed.
func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// retire drops from the registry and removes the files of old, a view no
// query holds, that cur does not name. A drain's removals are crash steps
// (the drain crash matrix kills before each); a reindex's come after its
// commit, when there is nothing left to recover.
func (ix *Index) retire(old, cur *Generation) {
	kept := make(map[string]bool)
	for _, f := range cur.Parts.Files() {
		kept[f] = true
	}
	for pid, base := range old.Parts.Paths {
		tail, _ := old.Parts.Tail(pid)
		for _, f := range [...]struct{ path, step string }{{base, "base-remove"}, {tail, "tail-remove"}} {
			if f.path == "" || kept[f.path] {
				continue
			}
			ix.Cl.Retire(f.path)
			if old.Skel == cur.Skel {
				CrashStep(fmt.Sprintf("%s-%05d", f.step, pid))
			}
			_ = os.Remove(f.path) // best effort: an open sweeps what is left
		}
	}
}

// Skeleton returns the current generation's skeleton.
func (ix *Index) Skeleton() *Skeleton { return ix.gen.Load().Skel }

// Partitions returns the current view's partition set, unpinned, for its
// metadata only (paths, counts, the series length): a drain may retire its
// files meanwhile, so a reader of them, or of the view's delta, pins a view
// with AcquireGeneration and reads both through it.
func (ix *Index) Partitions() *cluster.PartitionSet { return ix.gen.Load().Parts }

// crashHook, when set by a test, observes every durability step of the
// generation-swap protocol (partition writes, fsyncs, the MANIFEST rename)
// immediately *before* the step executes. The kill-anywhere crash matrix
// sets a hook that SIGKILLs the process at an enumerated step and asserts
// that reopening observes a fully-old or fully-new generation, never a mix.
var (
	crashHookMu sync.RWMutex
	crashHook   func(step string)
)

// SetCrashStepHook installs fn as the swap-protocol step observer; nil
// removes it. Test-only.
func SetCrashStepHook(fn func(step string)) {
	crashHookMu.Lock()
	crashHook = fn
	crashHookMu.Unlock()
}

// CrashStep announces a named durability step to the installed hook.
func CrashStep(step string) {
	crashHookMu.RLock()
	fn := crashHook
	crashHookMu.RUnlock()
	if fn != nil {
		fn(step)
	}
}

// WriteManifestPointer atomically points dir's MANIFEST at the named
// generation directory — the commit point of a reindex. The write is
// tmp + fsync + rename + parent-dir fsync: a crash strictly before the
// rename leaves the previous pointer (or none), a crash at or after it
// leaves the new one; no interleaving exposes a torn pointer.
func WriteManifestPointer(dir string, num int) error {
	name := genName(num)
	mp := manifestPath(dir)
	tmp := mp + ".tmp"
	CrashStep("manifest-write")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create manifest: %w", err)
	}
	if _, err := f.WriteString(name + "\n"); err != nil {
		f.Close()
		return fmt.Errorf("core: write manifest: %w", err)
	}
	CrashStep("manifest-fsync")
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close manifest: %w", err)
	}
	CrashStep("manifest-rename")
	if err := os.Rename(tmp, mp); err != nil {
		return fmt.Errorf("core: commit manifest: %w", err)
	}
	CrashStep("root-dir-sync")
	if err := storage.SyncPath(dir); err != nil {
		return err
	}
	CrashStep("commit-done")
	return nil
}

// ActiveGeneration resolves dir's active generation from its MANIFEST
// pointer: the generation root directory and number. A database without a
// MANIFEST is on its build-time layout — generation 0, rooted at dir
// itself.
func ActiveGeneration(dir string) (root string, num int, err error) {
	b, err := os.ReadFile(manifestPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return dir, 0, nil
	}
	if err != nil {
		return "", 0, fmt.Errorf("core: read manifest: %w", err)
	}
	name := strings.TrimSpace(string(b))
	var n int
	if _, serr := fmt.Sscanf(name, "gen-%d", &n); serr != nil || n <= 0 || name != genName(n) {
		return "", 0, fmt.Errorf("core: corrupt manifest pointer %q", name)
	}
	return GenDir(dir, n), n, nil
}

// CleanStaleGenerations removes generation remains that the active pointer
// does not reference: gen-NNNN directories other than the active one (debris
// of a reindex that crashed mid-build or mid-cleanup) and, when a gen-NNNN
// generation is active, the superseded generation-0 files (index.clms and
// the StoreDir tree). It is best-effort — the first removal error is
// returned, but a failure leaves only unreferenced files behind.
func CleanStaleGenerations(dir string, activeNum int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("core: scan for stale generations: %w", err)
	}
	var firstErr error
	keep := func(e error) {
		if firstErr == nil && e != nil {
			firstErr = e
		}
	}
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "gen-") {
			continue
		}
		var n int
		if _, serr := fmt.Sscanf(ent.Name(), "gen-%d", &n); serr != nil || ent.Name() != genName(n) {
			continue // not ours
		}
		if n == activeNum {
			continue
		}
		keep(os.RemoveAll(filepath.Join(dir, ent.Name())))
	}
	if activeNum > 0 {
		if err := os.Remove(IndexPathIn(dir)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			keep(err)
		}
		keep(os.RemoveAll(StoreDir(dir)))
	}
	return firstErr
}

// SweepPartitionFiles removes from the directories of parts' partition files
// every partition file parts does not name — a base, a tail or the temporary
// file of a write (*.clmp, *.tail, *.tmp) — which is what a killed drain
// leaves there: files written for a view whose manifest was never saved (its
// records are still in the WAL), and files of a replaced view whose removal
// never ran. Like CleanStaleGenerations it is best-effort: the first removal
// error is returned, and a failure leaves only unreferenced files behind.
func SweepPartitionFiles(parts *cluster.PartitionSet) error {
	live := make(map[string]bool)
	dirs := make(map[string]bool)
	for _, f := range parts.Files() {
		live[f] = true
		dirs[filepath.Dir(f)] = true
	}
	var firstErr error
	for dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: scan for stale partition files: %w", err)
			}
			continue
		}
		for _, ent := range entries {
			name := ent.Name()
			partFile := strings.HasSuffix(name, ".clmp") || strings.HasSuffix(name, ".tail") || strings.HasSuffix(name, ".tmp")
			path := filepath.Join(dir, name)
			if ent.IsDir() || !partFile || live[path] {
				continue
			}
			if err := os.Remove(path); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
