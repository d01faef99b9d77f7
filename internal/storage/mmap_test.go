package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// buildPartition writes a deterministic multi-cluster partition and returns
// its path plus the expected records keyed by (cluster, id).
func buildPartition(t *testing.T, seriesLen, nRecords int) (string, map[int][]float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 23))
	want := make(map[int][]float64, nRecords)
	recs := make([]Incoming, nRecords)
	for i := range recs {
		vals := make([]float64, seriesLen)
		for j := range vals {
			// Store float32-representable values so decoded comparisons are
			// exact.
			vals[j] = float64(float32(rng.NormFloat64() * 10))
		}
		recs[i] = Incoming{Cluster: ClusterID(i%5 - 1), ID: i, Values: vals}
		want[i] = vals
	}
	path := tempPath(t, "p.clmp")
	writeFile(t, path, seriesLen, recs)
	return path, want
}

// collectScans runs every scan flavour over one partition backend and
// returns the records each saw, for cross-backend comparison.
func collectScans(t *testing.T, p *Partition) (decoded, raw map[int][]float64) {
	t.Helper()
	decoded = make(map[int][]float64)
	if err := p.ScanAll(func(id int, values []float64) error {
		cp := make([]float64, len(values))
		copy(cp, values)
		decoded[id] = cp
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var ids []ClusterID
	for _, ci := range p.Clusters() {
		ids = append(ids, ci.ID)
	}
	raw = make(map[int][]float64)
	if err := p.ScanClustersRaw(ids, func(id int, rec []byte) error {
		if len(rec) != 4*p.SeriesLen() {
			return fmt.Errorf("record %d: %d value bytes, want %d", id, len(rec), 4*p.SeriesLen())
		}
		vals := make([]float64, p.SeriesLen())
		for j := range vals {
			vals[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rec[4*j:])))
		}
		raw[id] = vals
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return decoded, raw
}

// Every backend — file handle, heap copy, memory mapping — and every scan
// flavour — decoded and raw — must observe the identical record set. This is
// the storage half of the bit-identity contract: the engine can switch
// backends and kernels freely because they all read the same bytes.
func TestScanEquivalenceAcrossBackends(t *testing.T) {
	path, want := buildPartition(t, 33, 200)

	backends := map[string]func() (*Partition, error){
		"open": func() (*Partition, error) { return OpenPartition(path) },
		"load": func() (*Partition, error) { return LoadPartition(path) },
	}
	if MapSupported() {
		backends["map"] = func() (*Partition, error) { return MapPartition(path) }
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			p, err := open()
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			decoded, raw := collectScans(t, p)
			for _, got := range []map[int][]float64{decoded, raw} {
				if len(got) != len(want) {
					t.Fatalf("scanned %d records, want %d", len(got), len(want))
				}
				for id, vals := range want {
					g, ok := got[id]
					if !ok {
						t.Fatalf("record %d missing", id)
					}
					for j := range vals {
						if g[j] != vals[j] {
							t.Fatalf("record %d value %d: got %v, want %v", id, j, g[j], vals[j])
						}
					}
				}
			}
		})
	}
}

// MapPartition must report the resident/mapped flavour and charge MemBytes
// at file size plus directory; LoadPartition charges the capacity of its
// pooled buffer (at least the file, at most twice it) plus directory,
// without the mapped flag; OpenPartition directory-only.
func TestMemBytesPerBackend(t *testing.T) {
	path, _ := buildPartition(t, 8, 50)
	open, err := OpenPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	dirBytes := int64(clusterInfoBytes * len(open.Clusters()))
	if got := open.MemBytes(); got != dirBytes {
		t.Fatalf("file-backed MemBytes = %d, want directory-only %d", got, dirBytes)
	}
	if open.InMemory() || open.Mapped() {
		t.Fatal("file-backed partition reported resident")
	}

	load, err := LoadPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer load.Close()
	if got, want := load.MemBytes(), int64(cap(load.data))+dirBytes; got != want {
		t.Fatalf("loaded MemBytes = %d, want buffer capacity + directory = %d", got, want)
	}
	if c := int64(cap(load.data)); c < load.SizeBytes() || c > 2*load.SizeBytes() {
		t.Fatalf("buffer capacity %d for a %d-byte file: want within [size, 2*size]", c, load.SizeBytes())
	}
	if !load.InMemory() || load.Mapped() {
		t.Fatal("loaded partition flags wrong")
	}

	if !MapSupported() {
		t.Skip("platform cannot map partitions")
	}
	m, err := MapPartition(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, want := m.MemBytes(), m.SizeBytes()+dirBytes; got != want {
		t.Fatalf("mapped MemBytes = %d, want %d", got, want)
	}
	if !m.InMemory() || !m.Mapped() {
		t.Fatal("mapped partition flags wrong")
	}
}

// The reference-count lifecycle, on both resident backings: Retain defers
// teardown past Release-of-the-original, the final Release frees the backing
// (unmaps it, or hands the heap buffer back to the pool), and protocol
// violations (retain-after-teardown, double release) panic instead of handing
// out dead — or, for a recycled buffer, somebody else's — memory.
func TestPartitionRetainRelease(t *testing.T) {
	t.Run("load", func(t *testing.T) { testRetainRelease(t, LoadPartition) })
	if MapSupported() {
		t.Run("map", func(t *testing.T) { testRetainRelease(t, MapPartition) })
	}
}

func testRetainRelease(t *testing.T, open func(string) (*Partition, error)) {
	path, _ := buildPartition(t, 8, 20)
	p, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	p.Retain()
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	// One reference left: still readable.
	if !p.InMemory() {
		t.Fatal("partition torn down while a reference remains")
	}
	n := 0
	if err := p.ScanAll(func(int, []float64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != p.Count() {
		t.Fatalf("scanned %d records, want %d", n, p.Count())
	}
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	if p.InMemory() {
		t.Fatal("last release must free the resident bytes")
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"retain-after-teardown", p.Retain},
		{"double-release", func() { p.Release() }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
