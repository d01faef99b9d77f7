// Package pcache implements the shared partition cache sitting under the
// query path: a byte-budgeted LRU of in-memory partitions with singleflight
// loading.
//
// The Lernaean Hydra evaluations of data-series indexes show approximate
// query answering dominated by partition I/O, and CLIMBER's partition
// layout (paper Figure 6, Step 4) is immutable once built — so loaded
// partitions (memory mappings, or heap copies where mapping fails) can
// safely be shared read-only between every concurrent query.
// The cache exploits both facts: the first query to touch a partition loads
// it from disk exactly once (concurrent requests for the same partition
// coalesce onto that one read), and subsequent queries — including the
// within-partition widening pass, which previously re-opened files it had
// just scanned — are served from memory until the byte budget evicts the
// least recently used partition.
//
// A drain (core.Index.Drain) writes new partition files under new names and
// never changes a file under its name; a caller that does must Invalidate
// the path so the next Get reloads the fresh file.
//
// Resident partitions are reference counted (storage.Partition.Retain /
// Release): the cache holds one reference per resident entry and every
// partition returned by Get carries one reference owned by the caller, who
// must Release it when the scan finishes. Eviction, invalidation, and Purge
// only drop the cache's reference — a memory-mapped partition is therefore
// unmapped exactly when the last in-flight scan over it drains, never under
// one, and a heap copy's buffer is recycled for another partition's load
// only then. The byte budget charges MemBytes (mapped pages at file size,
// heap copies at the capacity of their pooled buffer, plus directory), so it
// bounds the cache's resident-set contribution, not a decoded-copy proxy.
package pcache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"climber/internal/storage"
)

// Counters receives the cache's event counts. Any nil field is replaced
// with a private counter, so a zero Counters is valid; the cluster layer
// passes pointers into its own Stats block so the numbers surface through
// cluster.Stats without a second source of truth.
type Counters struct {
	// Hits counts Get calls served without a disk read — resident entries
	// and requests coalesced onto another goroutine's in-flight load.
	Hits *atomic.Int64
	// Misses counts Get calls that performed the load themselves.
	Misses *atomic.Int64
	// Evictions counts entries dropped to keep the cache within budget.
	Evictions *atomic.Int64
	// BytesSaved accumulates the file sizes of hits — the disk traffic the
	// cache absorbed.
	BytesSaved *atomic.Int64
}

func (c *Counters) fill() {
	if c.Hits == nil {
		c.Hits = new(atomic.Int64)
	}
	if c.Misses == nil {
		c.Misses = new(atomic.Int64)
	}
	if c.Evictions == nil {
		c.Evictions = new(atomic.Int64)
	}
	if c.BytesSaved == nil {
		c.BytesSaved = new(atomic.Int64)
	}
}

// entry is one resident partition.
type entry struct {
	key  string
	p    *storage.Partition
	size int64
	elem *list.Element
}

// flight is one in-progress load other goroutines can wait on.
type flight struct {
	done chan struct{}
	// stale, guarded by Cache.mu, is set by Invalidate while the load is
	// in flight: the loaded partition may predate the invalidating write,
	// so it is handed to waiters but never inserted into the cache.
	stale bool
	// waiters, guarded by Cache.mu, counts the Gets blocked on done. Each
	// registered before the loader finishes; the loader takes one partition
	// reference per waiter before closing done, so every waiter wakes up
	// already owning its reference.
	waiters int
	p       *storage.Partition
	err     error
}

// Cache is a concurrency-safe, byte-budgeted LRU of in-memory partitions
// keyed by file path.
type Cache struct {
	budget   int64
	counters Counters

	mu          sync.Mutex
	bytes       int64
	mappedBytes int64
	entries     map[string]*entry
	ll          *list.List // front = most recently used
	inflight    map[string]*flight
}

// New creates a cache holding at most budget bytes of *resident* partition
// data, measured by storage.Partition.MemBytes. The budget is enforced at
// insert time, so it bounds the cache's steady-state footprint, not the
// process peak: loads in flight (one partition per concurrent cold Get) and
// evicted partitions still referenced by running scans are not counted
// against it. budget must be positive — a zero budget means "no cache";
// callers express that by not constructing one.
func New(budget int64, counters Counters) *Cache {
	counters.fill()
	return &Cache{
		budget:   budget,
		counters: counters,
		entries:  make(map[string]*entry),
		ll:       list.New(),
		inflight: make(map[string]*flight),
	}
}

// Get returns the partition cached under key, loading it via load on a
// miss. Concurrent Gets for the same key during a load block and share the
// single loaded partition (singleflight). hit reports whether the call
// avoided invoking load. A load error is returned to every waiter and
// nothing is cached.
//
// Every returned partition carries one reference owned by the caller, taken
// before Get returns; the caller must storage.Partition.Release (or Close)
// it when done. The load function must return a fresh partition owning its
// initial reference — exactly what OpenPartition/LoadPartition/MapPartition
// produce — and that reference is the one handed to the loading caller.
func (c *Cache) Get(key string, load func() (*storage.Partition, error)) (p *storage.Partition, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.ll.MoveToFront(e.elem)
		p = e.p
		// The cache's own reference keeps e.p alive here, so the caller's
		// reference must be taken before the lock drops — after it, an
		// eviction could tear the partition down.
		p.Retain()
		disk := p.SizeBytes()
		c.mu.Unlock()
		c.counters.Hits.Add(1)
		c.counters.BytesSaved.Add(disk)
		return p, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		f.waiters++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		// The loader already took this waiter's reference.
		c.counters.Hits.Add(1)
		c.counters.BytesSaved.Add(f.p.SizeBytes())
		return f.p, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	p, err = load()

	c.mu.Lock()
	// Invalidate may have detached this flight and a newer Get registered
	// its own; only deregister our flight, never a successor's.
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if err == nil {
		// One reference per blocked waiter; the loaded partition's initial
		// reference is this caller's own. The waiter count is final: the
		// flight is now deregistered (or was detached), so no further Get
		// can join it.
		for i := 0; i < f.waiters; i++ {
			p.Retain()
		}
		if !f.stale {
			c.insertLocked(key, p)
		}
	}
	c.mu.Unlock()
	f.p, f.err = p, err
	close(f.done)
	if err != nil {
		return nil, false, err
	}
	c.counters.Misses.Add(1)
	return p, false, nil
}

// insertLocked adds a loaded partition — taking the cache's own reference —
// and evicts from the LRU tail until the budget holds again. A partition
// larger than the whole budget is not cached at all — admitting it would
// immediately flush everything else.
func (c *Cache) insertLocked(key string, p *storage.Partition) {
	size := p.MemBytes()
	if size > c.budget {
		return
	}
	p.Retain()
	e := &entry{key: key, p: p, size: size}
	e.elem = c.ll.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	if p.Mapped() {
		c.mappedBytes += p.SizeBytes()
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.counters.Evictions.Add(1)
	}
}

// removeLocked detaches an entry and returns the cache's reference. For a
// mapped partition with no other outstanding references that final Release
// unmaps it — an eviction is an unmap exactly when no scan still needs the
// pages. Release runs under c.mu; teardown is a munmap, a file close or a
// heap buffer parked on the storage pool's idle list (a short mutex, no
// I/O), cheap enough not to be worth the unlock/relock dance.
func (c *Cache) removeLocked(e *entry) {
	c.ll.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
	if e.p.Mapped() {
		c.mappedBytes -= e.p.SizeBytes()
	}
	_ = e.p.Release()
}

// Invalidate drops the entry cached under key, if any, and marks any
// in-flight load of the key stale so its result is not cached either — a
// load that raced the invalidating write may have read the old file.
// Callers that rewrite a partition file must invalidate it so later Gets
// reload from disk. Queries still scanning the dropped partition keep
// their consistent snapshot: only the cache's reference is released, and a
// mapped partition stays mapped until those scans drain.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
	}
	if f, ok := c.inflight[key]; ok {
		// Mark the load stale so its result is not cached, and detach it
		// so Gets issued after this invalidation start a fresh load
		// instead of coalescing onto the possibly pre-write snapshot. The
		// detached flight still serves the waiters it already has.
		f.stale = true
		delete(c.inflight, key)
	}
}

// InvalidatePrefix applies Invalidate semantics to every key under prefix:
// resident entries are dropped and in-flight loads marked stale + detached.
// Because cache keys are partition file paths, a directory prefix
// invalidates a whole retired generation in one call after its last reader
// drains.
func (c *Cache) InvalidatePrefix(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if strings.HasPrefix(key, prefix) {
			c.removeLocked(e)
		}
	}
	for key, f := range c.inflight {
		if strings.HasPrefix(key, prefix) {
			f.stale = true
			delete(c.inflight, key)
		}
	}
}

// Purge drops every resident entry and marks every in-flight load stale so
// its result is not cached, releasing every partition reference the cache
// pins. Queries still scanning a dropped partition keep their consistent
// snapshot until they release their own references; the cache itself stays
// usable afterwards. Purge is
// how DB.Close releases the cache deterministically instead of waiting for
// the garbage collector to notice the DB is gone.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.removeLocked(e)
	}
	for key, f := range c.inflight {
		f.stale = true
		delete(c.inflight, key)
	}
}

// Contains reports whether key is currently resident (without touching the
// LRU order).
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Len returns the number of resident partitions.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the resident partition data volume (MemBytes of every
// cached partition), the quantity the budget bounds.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// MappedBytes returns the file bytes of the cached partitions that are
// memory mappings — the mapped share of Bytes, exported as a gauge so
// operators can see how much of the budget is page-cache-backed rather than
// heap.
func (c *Cache) MappedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mappedBytes
}

// Budget returns the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// Keys returns the resident keys from most to least recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*entry).key)
	}
	return out
}
