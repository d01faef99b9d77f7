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

// This file is the generation subsystem: a database directory holds one
// manifest, dir/index.clms, naming the current view's skeleton and partition
// files, and every change of view commits by saving it (tmp + fsync +
// rename). A drain writes the files it changes beside the current ones; a
// reindex writes a whole new set, named for the reindex count
// (cluster.GenerationName). Both build the next view beside the current one
// and commit it with Publish — save its manifest, fsync dir, SwapGeneration —
// so a crash reopens either view whole; readers that were
// mid-query keep a refcounted handle on the old view until they finish,
// exactly like readers of a path-copying persistent data structure keep the
// old version, and the files only old views name go once the last such
// reader is done (retire).
//
// On-disk layout:
//
//	dir/index.clms        the skeleton and the partition manifest
//	dir/cluster/          the partition files of every view (StoreDir)
//	dir/wal.clmw          the write-ahead log
//
// The partition manifest stores paths relative to dir (see SaveSnapshot),
// so a database directory, and a backup, is relocatable as a unit. Readers
// take partition paths only from that manifest, which is why directories
// written by earlier layouts keep opening: partitions under node00/,
// node01/, ..., and the layout where each reindex wrote a gen-NNNN directory
// with its own index.clms and a MANIFEST file named the current one. A
// read-only open follows such a pointer; a writable open moves its manifest
// to dir/index.clms once (UpgradeLayout).

// IndexPathIn returns the skeleton/manifest file path of the database (or
// old-layout generation directory) at root.
func IndexPathIn(root string) string { return filepath.Join(root, "index.clms") }

// StoreDir returns the directory holding the partition files: one flat
// directory beside dir/index.clms, into which builds, drains and reindexes
// all write.
func StoreDir(dir string) string { return filepath.Join(dir, "cluster") }

// genName formats an old-layout generation directory name.
func genName(n int) string { return fmt.Sprintf("gen-%04d", n) }

// manifestPath returns the old layout's MANIFEST pointer file path.
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
	// generation's skeleton but not yet compacted into its partition files,
	// or nil. It is fixed with the view: records are added into it, but a
	// drain publishes the files it wrote with another delta, one that lacks
	// their records, so it holds no record its files hold.
	delta DeltaSource

	// refs counts live handles: one base reference held by the Index while
	// the generation is current, plus one per in-flight query. drained
	// closes when the count first reaches zero — after the generation has
	// been swapped out and its last reader finished.
	refs      atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}
}

// NewGeneration wraps a skeleton, a partition set and a delta (nil for
// none) as a generation holding its base reference.
func NewGeneration(skel *Skeleton, parts *cluster.PartitionSet, delta DeltaSource) *Generation {
	g := &Generation{Skel: skel, Parts: parts, delta: delta, drained: make(chan struct{})}
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

// Delta returns the generation's delta source, or nil.
func (g *Generation) Delta() DeltaSource { return g.delta }

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
// their own, unless the index was closed by then. Callers must serialise
// SwapGeneration with every write path (climber.DB runs it under the
// ingestion semaphore).
func (ix *Index) SwapGeneration(ng *Generation) {
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
}

// Publish commits next, a view whose new files are written and durable, as
// the current one: save makes its manifest durable (saveSnapshot: tmp, fsync,
// rename over dir/index.clms), the database directory — the store
// directory's parent — is fsynced so the rename is too, and SwapGeneration
// publishes the view. It is the one commit of every view change that writes
// files: drains, folds, the legacy replay (Drain) and reindexes. A failure
// before the rename, an error from save, retires and removes the files only
// next names, as no reader ever held it; a failure after it keeps them, as
// the manifest on disk may name them, and leaves the current view published.
// Callers serialise Publish like SwapGeneration.
func (ix *Index) Publish(next *Generation, save func(next *Generation) error) error {
	if err := save(next); err != nil {
		ix.retire(next, ix.gen.Load())
		return fmt.Errorf("core: save the manifest: %w", err)
	}
	CrashStep("root-dir-sync")
	if err := storage.SyncPath(filepath.Dir(ix.Cl.Dir())); err != nil {
		return err
	}
	ix.SwapGeneration(next)
	return nil
}

// Close ends the removal of retired files once a removal under way is done:
// a retirement still waiting for a reader removes nothing, and leaves its
// files to the next writable open (SweepPartitionFiles).
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
// generation-swap protocol (partition writes, fsyncs, the manifest rename)
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

// ActiveGeneration resolves the manifest directory of dir: the gen-NNNN
// directory and number an old-layout MANIFEST pointer names, else dir itself
// and 0.
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
	return filepath.Join(dir, name), n, nil
}

// UpgradeLayout moves the manifest of dir, a directory on the old layout
// whose MANIFEST pointer named the gen-NNNN directory ix was opened from, to
// dir/index.clms: it saves the view there — the paths of its files, relative
// to dir, resolve where they lie — in the format it was read in, so a legacy
// view's replay is still landed by a fold (LegacyTails); then it removes the
// pointer and syncs dir. A kill before the removal leaves the pointer, and
// the next writable open upgrades again; what else the old layout left is
// the sweep's (SweepPartitionFiles).
func (ix *Index) UpgradeLayout(dir string) error {
	g := ix.AcquireGeneration()
	defer g.Release()
	if err := saveSnapshot(g.Skel, g.Parts, IndexPathIn(dir), ix.legacyTails); err != nil {
		return err
	}
	CrashStep("manifest-remove")
	if err := os.Remove(manifestPath(dir)); err != nil {
		return fmt.Errorf("core: remove manifest pointer: %w", err)
	}
	CrashStep("root-dir-sync")
	return storage.SyncPath(dir)
}

// SweepPartitionFiles removes what a writable open of dir must not find
// there, in the store directory, the directories of parts' files and the
// gen-NNNN directories of the old layout: every partition file parts does not
// name — a base, a tail or the temporary file of a write (*.clmp, *.tail,
// *.tmp) — and an old generation's index.clms; then each gen-NNNN directory
// left empty. That is what a killed drain or reindex leaves (files written
// for a view whose manifest was never saved, files of a replaced view whose
// removal never ran) and what the old layout leaves after UpgradeLayout. It
// is best-effort: the first removal error is returned, and a failure leaves
// only unreferenced files behind.
func SweepPartitionFiles(dir string, parts *cluster.PartitionSet) error {
	live := make(map[string]bool)
	dirs := map[string]bool{StoreDir(dir): false}
	for _, f := range parts.Files() {
		live[f] = true
		dirs[filepath.Dir(f)] = false
	}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	top, err := os.ReadDir(dir)
	keep(err)
	for _, ent := range top {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "gen-") {
			dirs[filepath.Join(dir, ent.Name())] = true
		}
	}
	for d, oldGen := range dirs {
		entries, err := os.ReadDir(d)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				keep(fmt.Errorf("core: scan for stale partition files: %w", err))
			}
			continue
		}
		for _, ent := range entries {
			name := ent.Name()
			stale := strings.HasSuffix(name, ".clmp") || strings.HasSuffix(name, ".tail") || strings.HasSuffix(name, ".tmp") ||
				oldGen && name == "index.clms"
			path := filepath.Join(d, name)
			if ent.IsDir() || !stale || live[path] {
				continue
			}
			keep(os.Remove(path))
		}
		if oldGen {
			_ = os.Remove(d) // only an empty directory goes
		}
	}
	return firstErr
}
