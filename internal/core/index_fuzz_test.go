package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
)

// oversizedPivots is a skeleton header that once killed OpenIndex with
// "fatal error: runtime: out of memory": valid config fields except for
// 2^31 pivots of one segment, and a pivot payload count to match, so the
// decoder sized its pivot table from the header before a single coordinate
// was there to back it. It must now be an error.
func oversizedPivots(valid []byte) []byte {
	out := bytes.Clone(valid[:min(len(valid), 4+8+13*8+8)])
	binary.LittleEndian.PutUint64(out[12:], 1)     // Segments
	binary.LittleEndian.PutUint64(out[20:], 1<<31) // NumPivots
	binary.LittleEndian.PutUint64(out[116:], 1<<31)
	return out
}

// FuzzOpenIndex feeds OpenIndex arbitrary index files — skeleton, partition
// manifest and the optional tail trailer — beside the partition files of a
// real index with tails. Whatever the bytes, it returns an error or an index
// whose manifest is coherent and whose skeleton survives its own encoding;
// it never panics and never allocates what the file cannot back.
func FuzzOpenIndex(f *testing.F) {
	dir := f.TempDir()
	cl := cluster.New(dir, 2)
	cfg := testConfig()
	ix, err := Build(cl, cluster.Blocks(dataset.RandomWalk(64, 600, 11), cfg.BlockSize), cfg, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ix.WriteRouted(routeFresh(ix, 12, 5)); err != nil {
		f.Fatal(err)
	}
	if files, _, _ := ix.TailStats(); files == 0 {
		f.Fatal("the seed index has no tails: the tail trailer would go unfuzzed")
	}
	if err := SaveIndex(ix, IndexPathIn(dir)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(IndexPathIn(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(oversizedPivots(valid))
	f.Add(valid[:len(valid)-3]) // a torn trailer

	f.Fuzz(func(t *testing.T, data []byte) {
		// The file sits beside the seed's partitions, so the manifest's
		// relative paths resolve to real files.
		tmp, err := os.CreateTemp(dir, "fuzz-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(tmp.Name())
		_, err = tmp.Write(data)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		ix, err := OpenIndex(cl, tmp.Name())
		if bytes.Equal(data, valid) && (err != nil || !slices.ContainsFunc(ix.Partitions().Tails, func(t int) bool { return t > 0 })) {
			t.Fatalf("the seed index does not open with its tails: %v", err)
		}
		if err != nil {
			return
		}
		skel, parts := ix.Skeleton(), ix.Partitions()
		if parts.SeriesLen != skel.SeriesLen || len(parts.Counts) != len(parts.Paths) {
			t.Fatalf("incoherent manifest: series length %d (skeleton %d), %d counts for %d paths",
				parts.SeriesLen, skel.SeriesLen, len(parts.Counts), len(parts.Paths))
		}
		for pid, c := range parts.Counts {
			if _, tail := parts.Tail(pid); c < 0 || tail < 0 || tail > c {
				t.Fatalf("partition %d: %d records, %d in the tail", pid, c, tail)
			}
		}
		var enc, again bytes.Buffer
		if err := skel.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSkeleton(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("a decoded skeleton does not decode again: %v", err)
		}
		if err := back.Encode(&again); err != nil || !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatalf("a decoded skeleton does not encode to the same bytes twice (%v)", err)
		}
	})
}

// FuzzManifestPointer feeds ActiveGeneration arbitrary MANIFEST pointer
// files: it answers an error, or the one generation whose canonical name the
// file holds.
func FuzzManifestPointer(f *testing.F) {
	for _, seed := range []string{"gen-0001\n", "gen-0042", "gen-12345\n", "", "\n", "gen-", "gen-0000\n",
		"gen--001", "gen-+001", "gen-1", "gen-0001 gen-0002", "gen-99999999999999999999", "\x00gen-0001"} {
		f.Add([]byte(seed))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		root, num, err := ActiveGeneration(dir)
		if err != nil {
			return
		}
		if name := strings.TrimSpace(string(data)); num <= 0 || name != genName(num) || root != filepath.Join(dir, name) {
			t.Fatalf("pointer %q resolved to generation %d at %s", data, num, root)
		}
		if filepath.Dir(root) != dir {
			t.Fatalf("pointer %q leads out of the database directory: %s", data, root)
		}
	})
}
