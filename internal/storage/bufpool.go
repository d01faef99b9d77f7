package storage

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// The partition-buffer pool: whole partition files move through the process
// as byte slices — LoadPartition reads one into a buffer, a Layout builds
// a file in one — and a buffer whose partition has drained its
// last reference is handed to the next load instead of the garbage
// collector. On the fallback load path that replaces allocating, zero-filling
// and page-faulting a partition-sized slice per load with one read into
// memory that is already resident.
//
// Policy, chosen by measurement on the cold-od workload (CHANGES.md, PR 15):
// a new buffer is allocated at its size class (four per doubling, so under a
// quarter larger than the file), and an idle buffer serves any request of at
// least half its capacity, smallest fitting buffer first. A heap partition
// therefore holds at most twice its file size, whatever else the process has
// loaded — one high-water class for every buffer reused as often but charged
// every partition the size of the largest, and matching classes exactly
// reused barely half the time.

// maxIdleBuffers bounds the idle list, and with it the memory the pool holds
// beyond what partitions are using: a miss takes one buffer and the eviction
// it causes returns one, so the list needs to be no longer than the number of
// loads in flight. When it is full the oldest idle buffer is dropped for the
// collector, so sizes no longer asked for cannot pin the list.
const maxIdleBuffers = 4

var bufPool struct {
	mu        sync.Mutex
	idle      [][]byte // oldest first
	idleBytes int64

	reused, fresh atomic.Int64
}

// BufferStats describes the process-wide partition-buffer pool.
type BufferStats struct {
	// Reused and Fresh count the buffers issued from the idle list and the
	// ones that had to be allocated.
	Reused, Fresh int64
	// IdleBytes is the capacity currently parked on the idle list.
	IdleBytes int64
}

// BufferPoolStats snapshots the partition-buffer pool's counters.
func BufferPoolStats() BufferStats {
	bufPool.mu.Lock()
	idle := bufPool.idleBytes
	bufPool.mu.Unlock()
	return BufferStats{Reused: bufPool.reused.Load(), Fresh: bufPool.fresh.Load(), IdleBytes: idle}
}

// bufClass rounds n up to its size class: four classes per doubling, so
// files of similar size — a partition before and after a compaction — share
// buffers, at a capacity under a quarter above the file's size.
func bufClass(n int) int {
	if n <= 4 {
		return 4
	}
	step := 1 << (bits.Len(uint(n-1)) - 3)
	return (n + step - 1) &^ (step - 1)
}

// getBuf returns a buffer of length n with unspecified contents: the
// smallest idle buffer with n <= cap <= 2n when there is one, a new
// allocation of n's size class otherwise.
func getBuf(n int) []byte {
	bufPool.mu.Lock()
	best := -1
	for i, b := range bufPool.idle {
		if cap(b) >= n && cap(b)/2 <= n && (best < 0 || cap(b) < cap(bufPool.idle[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := bufPool.idle[best]
		bufPool.idle = slices.Delete(bufPool.idle, best, best+1)
		bufPool.idleBytes -= int64(cap(b))
		bufPool.mu.Unlock()
		bufPool.reused.Add(1)
		return b[:n]
	}
	bufPool.mu.Unlock()
	bufPool.fresh.Add(1)
	return make([]byte, n, bufClass(n))
}

// putBuf parks b on the idle list for a later getBuf. The caller must hold
// the only reference to b. A race build fills it with 0xFF bytes first
// (poisonReleased).
func putBuf(b []byte) {
	if poisonReleased && cap(b) > 0 {
		b = b[:cap(b)]
		b[0] = 0xFF
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	bufPool.mu.Lock()
	if len(bufPool.idle) == maxIdleBuffers {
		bufPool.idleBytes -= int64(cap(bufPool.idle[0]))
		bufPool.idle = slices.Delete(bufPool.idle, 0, 1)
	}
	bufPool.idle = append(bufPool.idle, b)
	bufPool.idleBytes += int64(cap(b))
	bufPool.mu.Unlock()
}
