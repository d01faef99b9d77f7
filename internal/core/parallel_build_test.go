package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"climber/internal/cluster"
	"climber/internal/dataset"
	"climber/internal/storage"
)

// hashFile returns the SHA-256 of a file's contents.
func hashFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// buildArtifacts runs one full Build at the given worker count — the store's
// pool and the skeleton loops both — and returns a name -> SHA-256 map of the
// artefacts: the skeleton encoding, each partition file, and the saved index
// manifest (whose partition paths are relative to baseDir, so it too is
// comparable across directories).
func buildArtifacts(t *testing.T, baseDir string, capacity, workers int) map[string]string {
	t.Helper()
	cl := cluster.New(baseDir, workers)
	cfg := DefaultConfig()
	cfg.NumPivots = 50
	cfg.PrefixLen = 8
	cfg.BlockSize = 100
	cfg.Workers = workers
	if capacity > 0 {
		cfg.Capacity = capacity
	}
	ds := dataset.RandomWalk(64, 600, 11)
	bs := cluster.Blocks(ds, cfg.BlockSize)
	ix, err := Build(cl, bs, cfg, "det")
	if err != nil {
		t.Fatal(err)
	}

	out := make(map[string]string)
	var buf bytes.Buffer
	if err := ix.Skeleton().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	out["skeleton"] = hex.EncodeToString(sum[:])

	idxPath := filepath.Join(baseDir, "index.clms")
	if err := SaveIndex(ix, idxPath); err != nil {
		t.Fatal(err)
	}
	out["index.clms"] = hashFile(t, idxPath)
	for _, p := range ix.Partitions().Paths {
		whole, records := hashPartition(t, p)
		out["partition/"+filepath.Base(p)] = records
		out["summarized/"+filepath.Base(p)] = whole
	}
	return out
}

// hashPartition returns the SHA-256 of a partition file and of its
// version-2 form (storage.WithoutSummaries): the file without its summary
// section, which holds every record byte and nothing else that is new.
func hashPartition(t *testing.T, path string) (whole, records string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := storage.WithoutSummaries(raw)
	if err != nil {
		t.Fatal(err)
	}
	sum, sum2 := sha256.Sum256(raw), sha256.Sum256(v2)
	return hex.EncodeToString(sum[:]), hex.EncodeToString(sum2[:])
}

// goldenArtifacts are the stored-data hashes of the build in buildArtifacts
// (the manifest lists partition paths, which are layout, so it is pinned
// across worker counts only), recorded at commit c462d5c — the last one whose store spread blocks and
// partitions over node directories and ran its scans on a fixed 2x2 pool.
// They are the proof that collapsing the store changed no stored byte. Four
// fine-capacity partitions (12, 14, 15, 17) were re-recorded on purpose when
// routing became the query's own target choice: records that used to land by
// a random group draw, or in a group's overflow cluster after stopping at an
// internal trie node, now land where their own query looks.
//
// Since partition format version 3 the "partition/" hashes are of each
// file's version-2 form (storage.WithoutSummaries): they are unchanged, which
// proves the summary section moved no record byte. The "summarized/" hashes
// are of the whole version-3 files, recorded when the section was added.
var goldenArtifacts = map[string]map[string]string{
	"default-capacity": {
		"partition/det-part00000.clmp":  "dca37eaa17cf1b90cfb2b58aebc51e6ef74134fe849faac8ab5aba585f29f64c",
		"partition/det-part00001.clmp":  "03aa6ee1032962dce0e71e5c88b7dd2caf6ac86a04aa9a38d6612b4a24c97a95",
		"summarized/det-part00000.clmp": "4f3c3593eb9813bdf3b06fe22388526d40ffca7ae7d4c6e29f92db91f469aa52",
		"summarized/det-part00001.clmp": "6db4c9c65fb88331c985fb375e1ff30163f2e8100893058820260e6cbd25720c",
		"skeleton":                      "a65dc898bc1024d30899f474934be0f1c9fe60ad287520395c75009ad76969fa",
	},
	"fine-capacity": {
		"partition/det-part00000.clmp":  "e950447dfa366cee1158fa4e9ed63ad57b3f43c3a49b701a09f71b0d8f5fc664",
		"partition/det-part00001.clmp":  "410ea3c6beda7197b5b9a09933d7c0ea207f83ad18361ebe7394687d953c47f6",
		"partition/det-part00002.clmp":  "9ea4b13c9b02f1e6c8b7c2ea300f957c5102d18931f0d14af6d61dfd653d2630",
		"partition/det-part00003.clmp":  "028c277a528b0ee402cb44bbde878a6f1e89a74f97415055936ca1e7d558ff4b",
		"partition/det-part00004.clmp":  "abab054b318f941bc4e2d124f897bb4c438253e64d59357fa62507fde48dc069",
		"partition/det-part00005.clmp":  "f8622462dca36a03123805a1491cbaa4d9abe5a6bc6299ac656d23701aa005b0",
		"partition/det-part00006.clmp":  "3fcd3d74e7bc85b968910270a681bfc94cc28e1f044f24e869037650a803beb2",
		"partition/det-part00007.clmp":  "24c1350167e18583f3ee70b8dc0071e3982371b0d6b2310a9cbd4afcd433dff4",
		"partition/det-part00008.clmp":  "09bd0ad82efbd9c5ce17d0985c5a28fd10bdb20ceb0523bc9c019ba6c8854a38",
		"partition/det-part00009.clmp":  "c958199c000fe9c6d38f13ae512115b5ec7358ecd2198b112c8cc07af890f1c5",
		"partition/det-part00010.clmp":  "fb4550426f895762ec7fd3dd596d3e89b52d6a4ccbda9ef24a898ec811129221",
		"partition/det-part00011.clmp":  "2249d28180e59e5c3a764515e8627eb922862f1c6e311cc982f4b09870560254",
		"partition/det-part00012.clmp":  "d9cfd9ad8b5efeb515fccd88b7722406003b8d4b2b0edd4918d2ea08df59d5be",
		"partition/det-part00013.clmp":  "df01ae6cc3b700b1679ac57124eb47f4459eb795ccb3945326e6872e3942684b",
		"partition/det-part00014.clmp":  "4b65c0a40b937162b9737e62f96265f407db5def6cf944b9edb58853e4eaf284",
		"partition/det-part00015.clmp":  "4a0efc8fd7a582a4618b5d819b17c4f9e5d363d2c1f5fd342162d8b6e3b22a1a",
		"partition/det-part00016.clmp":  "1e86f3afd1f35a588c76241e7d8019e829274c65e1db02eef1a2abd364d18d69",
		"partition/det-part00017.clmp":  "4b388749e5d04aa2a76483b4ceddf888712ddf926e49f8e0239b0bc5ad0d0fbc",
		"partition/det-part00018.clmp":  "9557fd52d4ba4abf3ec923c712665dd8f65ffe1f9a54b609f07e7200f9552263",
		"summarized/det-part00000.clmp": "c06af83b97abfd77c6062024047943f2a67371c86f3b0329567780458d3387bb",
		"summarized/det-part00001.clmp": "d2ca7103773b1aede3b0f253e77fcbf97ecf1c6ba214469e9b00d4734a260947",
		"summarized/det-part00002.clmp": "660c2c0033f02ce6402c0eef7d145b5c98249b96351e4eea7908f949b6c6a08a",
		"summarized/det-part00003.clmp": "bdcdc393d2d2f63d7aa017278336a176a60575c71863b4340ab5ecd1bec509a9",
		"summarized/det-part00004.clmp": "8d8afa3e87e8727da91f272a0b8f65b86a46312c07431209820c3459074b5cba",
		"summarized/det-part00005.clmp": "6dd16bbfcf3a1e70f0f5c460c0b9070e448d873abad965ed320a2cc3d2748805",
		"summarized/det-part00006.clmp": "c2dafcfb1fcf91f8f549bf48b0639aab9ff560e7fee5a4baffd6713eca28dde7",
		"summarized/det-part00007.clmp": "ccac898792a313a769f4b7da35bdde5adebb4e64dd9015a09f29aeae297a1899",
		"summarized/det-part00008.clmp": "1dc68a5dfa3abefee268e069890e43886ee483896b829a810cd621ad0f61d9cc",
		"summarized/det-part00009.clmp": "cb277e0062fdd47bc2a80f958fb2f66230d100bd47b7f9e10d2b376b70cec8ff",
		"summarized/det-part00010.clmp": "ca2a5bf3d58b4e68d502bef09023373a9c1eb6089e3545c8b7e8c34ab1df8336",
		"summarized/det-part00011.clmp": "8e2f75a1b9e0807c998668fb740d0a4a4a18d75eb7dfec60d81174667e5f5b80",
		"summarized/det-part00012.clmp": "47d078bf6af19349f83221e541e81daddbb17e49135eeed840337fcc56ab2132",
		"summarized/det-part00013.clmp": "78a5eb6fbf69a76f8df3d7e55309230cfc599f714112393bebdfd2ece84d8c64",
		"summarized/det-part00014.clmp": "f0b3174290020f11167bd9c424380eead337b400b996d56749fdadf33951797c",
		"summarized/det-part00015.clmp": "dd7f325eadfe386bf82d03fd6124c0837ae7709fa03bd12f8d6e9333d180d326",
		"summarized/det-part00016.clmp": "e8e82d68eac0a529e8062aabfcdf32577a239cbd00acdecb4b5c9c2590374113",
		"summarized/det-part00017.clmp": "3d38d0aec6b1de6764190b891d2c2db3c92b87de27e5a3fcfef24457c5f608f2",
		"summarized/det-part00018.clmp": "cbfe34564e9929eeedb12ad60b3075a94544ac553914942598f9e40d782a999b",
		"skeleton":                      "0e40f8af8f9cd4e48cff3f244a61634aa7a9eabfb90adbb778dfb16d47972122",
	},
}

// TestParallelBuildBitIdentical pins the central guarantee of the parallel
// build as an absolute: at ANY worker count the skeleton bytes and every
// partition file hash to the checked-in goldens, and the index manifest is
// the same file. Group assignment and routing are pure functions of the
// signature and the values, and every merge happens in sorted-key order, so
// goroutine scheduling must never leak into
// the artefacts. Two granularities are covered: the coarse default capacity
// (few partitions, shallow tries) and a fine capacity that forces many trie
// splits and partitions. CI runs this under -race, which also makes it the
// data-race probe for the build path.
func TestParallelBuildBitIdentical(t *testing.T) {
	granularities := []struct {
		name     string
		capacity int // 0 keeps the DefaultConfig capacity
	}{
		{"default-capacity", 0},
		{"fine-capacity", 50},
	}
	for _, g := range granularities {
		t.Run(g.name, func(t *testing.T) {
			want := goldenArtifacts[g.name]
			manifest := ""
			for _, workers := range []int{1, 4, 8} {
				got := buildArtifacts(t, t.TempDir(), g.capacity, workers)
				if manifest == "" {
					manifest = got["index.clms"]
				} else if got["index.clms"] != manifest {
					t.Errorf("workers=%d: index.clms differs from the sequential build", workers)
				}
				delete(got, "index.clms")
				if len(got) != len(want) {
					t.Fatalf("workers=%d produced %d artefacts, golden build has %d", workers, len(got), len(want))
				}
				for name, h := range want {
					if got[name] != h {
						t.Errorf("workers=%d: artefact %s = %s, golden %s", workers, name, got[name], h)
					}
				}
			}
		})
	}
}
