//go:build linux || darwin

package storage

import (
	"fmt"
	"math"
	"os"
	"syscall"
)

// MapSupported reports whether this platform can memory-map partition files.
// When false, MapPartition always errors and callers fall back to
// LoadPartition.
func MapSupported() bool { return true }

// mapFile maps path read-only and shared: the pages are the kernel page
// cache, so every process mapping the same immutable partition shares one
// physical copy. The file descriptor is closed before returning — the
// mapping keeps the underlying file alive on its own.
func mapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: map partition: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: map partition: %w", err)
	}
	size := info.Size()
	if size <= 0 || size > math.MaxInt {
		return nil, fmt.Errorf("storage: cannot map partition %s of size %d", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("storage: mmap %s: %w", path, err)
	}
	// Partition scans walk whole clusters; WILLNEED starts readahead on the
	// file so the first scan does not fault one page at a time. Advice is
	// best-effort — a refusal changes timing, not correctness.
	_ = syscall.Madvise(data, syscall.MADV_WILLNEED)
	return data, nil
}

// unmapFile releases a mapping produced by mapFile. A race build keeps the
// pages reserved with no access instead (poisonReleased), so a read through
// a slice kept past the release faults.
func unmapFile(data []byte) error {
	if poisonReleased {
		return syscall.Mprotect(data, syscall.PROT_NONE)
	}
	return syscall.Munmap(data)
}
