package pcache

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"climber/internal/storage"
)

// The satellite fix this pins: the budget charges what a partition actually
// keeps resident (MemBytes — a heap copy's whole pooled buffer or a
// mapping's file bytes, plus decoded directory), for both kinds of resident
// partition, and MappedBytes reports the mapped share.
func TestBytesChargesDecodedAndMappedKinds(t *testing.T) {
	dir := t.TempDir()
	decPath, decSize := writePartition(t, dir, "dec.clmp", 20)
	mapPath, mapSize := writePartition(t, dir, "map.clmp", 30)
	c := New(1<<20, Counters{})

	dec, _, err := c.Get(decPath, func() (*storage.Partition, error) { return storage.LoadPartition(decPath) })
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Release()
	want := dec.MemBytes()
	if got := c.Bytes(); got != want {
		t.Fatalf("decoded-only Bytes() = %d, want %d", got, want)
	}
	if want < decSize || want > 2*decSize+1024 {
		t.Fatalf("heap partition of %d file bytes charged %d; want its buffer's capacity, within [size, 2*size] plus directory", decSize, want)
	}
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("decoded-only MappedBytes() = %d, want 0", got)
	}

	if !storage.MapSupported() {
		t.Skip("platform cannot map partitions")
	}
	m, _, err := c.Get(mapPath, func() (*storage.Partition, error) { return storage.MapPartition(mapPath) })
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if !m.Mapped() || !m.InMemory() {
		t.Fatalf("MapPartition: Mapped=%v InMemory=%v, want true/true", m.Mapped(), m.InMemory())
	}
	want += m.MemBytes()
	if got := c.Bytes(); got != want {
		t.Fatalf("mixed Bytes() = %d, want %d", got, want)
	}
	if got := c.MappedBytes(); got != mapSize {
		t.Fatalf("MappedBytes() = %d, want file size %d", got, mapSize)
	}

	c.Invalidate(mapPath)
	if got := c.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes() after invalidate = %d, want 0", got)
	}
}

// Eviction of a mapped partition must not unmap under a reader: the evicted
// handle keeps scanning its pages, and the unmap happens exactly when the
// last reference drains.
func TestEvictionUnmapsOnlyAfterLastRelease(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("platform cannot map partitions")
	}
	dir := t.TempDir()
	p0Path, _ := writePartition(t, dir, "p0.clmp", 25)
	p1Path, _ := writePartition(t, dir, "p1.clmp", 25)
	c := New(memBytesOf(t, p0Path)+1, Counters{}) // room for one partition

	p0, _, err := c.Get(p0Path, func() (*storage.Partition, error) { return storage.MapPartition(p0Path) })
	if err != nil {
		t.Fatal(err)
	}
	// Loading p1 evicts p0 — the cache's reference goes, ours remains.
	p1, _, err := c.Get(p1Path, func() (*storage.Partition, error) { return storage.MapPartition(p1Path) })
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Release()
	if c.Contains(p0Path) {
		t.Fatal("p0 should have been evicted")
	}
	if got := c.counters.Evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if !p0.InMemory() {
		t.Fatal("evicted partition must stay mapped while a reader holds it")
	}
	// The mapping must still be readable end to end.
	n := 0
	if err := p0.ScanAll(func(int, []float64) error { n++; return nil }); err != nil {
		t.Fatalf("scan of evicted mapped partition: %v", err)
	}
	if n != p0.Count() {
		t.Fatalf("scanned %d records, want %d", n, p0.Count())
	}
	// Dropping the last reference tears the mapping down.
	if err := p0.Release(); err != nil {
		t.Fatalf("final release: %v", err)
	}
	if p0.InMemory() {
		t.Fatal("last release must unmap the partition")
	}
}

// The -race unmap-safety test: many goroutines Get a mapped partition and
// scan it raw while the main goroutine keeps invalidating the entry (the
// cache reloads and re-maps it over and over). Every scan must read valid
// mapped memory — the per-caller reference from Get is what defers each
// unmap past the scans it would otherwise yank pages from under.
func TestConcurrentRawScanDuringInvalidate(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("platform cannot map partitions")
	}
	dir := t.TempDir()
	const records = 60
	path, _ := writePartition(t, dir, "p0.clmp", records)
	c := New(1<<20, Counters{})
	mapLoader := func() (*storage.Partition, error) { return storage.MapPartition(path) }

	const goroutines = 8
	const scansPer = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scansPer; i++ {
				p, _, err := c.Get(path, mapLoader)
				if err != nil {
					errs <- err
					return
				}
				n, recBytes := 0, storage.RecordBytes(p.SeriesLen())
				err = p.ScanClusterRuns(0, func(recs, _ []byte) error {
					if len(recs)%recBytes != 0 {
						return fmt.Errorf("a run of %d bytes is not whole records of %d", len(recs), recBytes)
					}
					for off := 0; off < len(recs); off += recBytes {
						if id := binary.LittleEndian.Uint64(recs[off:]); id >= records {
							return fmt.Errorf("record ID %d, but only %d were written", id, records)
						}
						n++
					}
					return nil
				})
				if err == nil && n == 0 {
					err = fmt.Errorf("cluster 0 scanned empty")
				}
				p.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			return
		case err := <-errs:
			t.Fatal(err)
		default:
			c.Invalidate(path)
		}
	}
}

// The -race recycling-safety test, the heap twin of the unmap test above:
// every partition is filled with its own marker value and the budget holds
// one of them, so every Get evicts and every evicted buffer goes back to the
// storage pool for the next load to overwrite. A scan holds its reference
// for its whole duration, so it must see its own partition's marker in every
// reading — another marker means a buffer was re-issued before its last
// Release.
func TestConcurrentRawScanDuringEvictionHeap(t *testing.T) {
	const parts, records, seriesLen = 6, 40, 8
	dir := t.TempDir()
	paths := make([]string, parts)
	for i := range paths {
		vals := make([]float64, seriesLen)
		for j := range vals {
			vals[j] = float64(i + 1)
		}
		recs := make([]storage.Incoming, records)
		for id := range recs {
			recs[id] = storage.Incoming{ID: id, Values: vals}
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("p%d.clmp", i))
		if _, _, err := storage.MergePartitions(paths[i], seriesLen, nil, recs, nil); err != nil {
			t.Fatal(err)
		}
	}
	c := New(memBytesOf(t, paths[0])+1, Counters{})

	const goroutines = 8
	const scansPer = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scansPer; i++ {
				part := (g + i) % parts
				path := paths[part]
				p, _, err := c.Get(path, func() (*storage.Partition, error) { return storage.LoadPartition(path) })
				if err != nil {
					errs <- err
					return
				}
				marker := math.Float32bits(float32(part + 1))
				n, recBytes := 0, storage.RecordBytes(p.SeriesLen())
				err = p.ScanClusterRuns(0, func(recs, _ []byte) error {
					for ; len(recs) >= recBytes; recs = recs[recBytes:] {
						id := binary.LittleEndian.Uint64(recs)
						for off := 8; off < recBytes; off += 4 {
							if got := binary.LittleEndian.Uint32(recs[off:]); got != marker {
								return fmt.Errorf("partition %d record %d reads %v, want its marker %d",
									part, id, math.Float32frombits(got), part+1)
							}
						}
						n++
					}
					return nil
				})
				if err == nil && n != records {
					err = fmt.Errorf("partition %d scanned %d records, want %d", part, n, records)
				}
				p.Release()
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.counters.Evictions.Load() == 0 {
		t.Fatal("the budget never evicted; the test exercised no recycling")
	}
	if reused := storage.BufferPoolStats().Reused; reused == 0 {
		t.Fatal("no load reused a buffer; the test exercised no recycling")
	}
}
