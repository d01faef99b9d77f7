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
// version-2 form (storage.Reformat to version 2): the file without its
// summary section, which holds every record byte and nothing else that is
// new.
func hashPartition(t *testing.T, path string) (whole, records string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := storage.Reformat(raw, 2)
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
// file's version-2 form (storage.Reformat to version 2): they are unchanged,
// which proves the summary section moved no record byte. The "summarized/"
// hashes are of the whole files, recorded again when format version 4
// doubled the summary bytes per record, which was their only change.
var goldenArtifacts = map[string]map[string]string{
	"default-capacity": {
		"partition/det-part00000.clmp":  "dca37eaa17cf1b90cfb2b58aebc51e6ef74134fe849faac8ab5aba585f29f64c",
		"partition/det-part00001.clmp":  "03aa6ee1032962dce0e71e5c88b7dd2caf6ac86a04aa9a38d6612b4a24c97a95",
		"summarized/det-part00000.clmp": "9f7fb4703f7746895302625736b42dd9deac18859a8021c35106551b812d14ac",
		"summarized/det-part00001.clmp": "5a771277d9ce67d2f5d007472028373ab57ecec33695bae513be448f3fb66278",
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
		"summarized/det-part00000.clmp": "74522a16242e3ec1742a240f3c9a792a09fe1e4b6fb8639129200e4379b4edf2",
		"summarized/det-part00001.clmp": "12fd094b722131e5cdbd28217c9004f1c14fb2bd3368099bf61b8f2380b99d04",
		"summarized/det-part00002.clmp": "0d3d05e55e9ea53f8b098165fdb2df5655d6613655b45fb8ffe6c3b97e17984e",
		"summarized/det-part00003.clmp": "07b2d8141372ace64e7353b1ab0d21ceea4f0658e8532a9d492783222e90f756",
		"summarized/det-part00004.clmp": "a64322211c1af3dd626ef871f2d8441a83c5bfe71a80f5e2a4d6ffebc4ca652b",
		"summarized/det-part00005.clmp": "e8e311d2649c5b3bb08462da9650fd45b6d9260235d4761202c9e0146db36d20",
		"summarized/det-part00006.clmp": "3408f713c8b36619ad3d73875a588492e11ce290cda08219feda7b8ad74e9fb9",
		"summarized/det-part00007.clmp": "912cfbb0b9a2dc9e3cf9b466fc4bbdf28f1729d8a51af8d780109eb6c3aebc5c",
		"summarized/det-part00008.clmp": "2996b3e18e985e7865534962e7e784b0853d60223dc0f8fd9b5857ac7fa8993c",
		"summarized/det-part00009.clmp": "6ad72ac49df8f7b369d90d0e23f2aa606c01d854a166a85f84502e56673d95ff",
		"summarized/det-part00010.clmp": "2ba46eb1f180c9a860f9e899d07b10648445241f2f7f10e4313eb01b0d482ee8",
		"summarized/det-part00011.clmp": "382cbc4acc0b88c6c57d9942b473314cdca392efd2dcbcc65d7825a8e2b07203",
		"summarized/det-part00012.clmp": "776715cbca51471beaf8425bc2defa06419ce1487da7f16651ff09f079675799",
		"summarized/det-part00013.clmp": "2906b99c24829a1f9ae3b4ea8998a6a7aa84f2b38052381080060f651dd60b89",
		"summarized/det-part00014.clmp": "1cb18cf34ccba6312eccdf98a2a13ac2039f16538ba5a4527c45400e07e75bb9",
		"summarized/det-part00015.clmp": "faf57d8ed5c8c06f11d3c9347408de0456f545b257e688247a9b6fe258536ce3",
		"summarized/det-part00016.clmp": "a1738884736fd507e6973a834bb0784ba2d305966e8670d5aafea51375003b92",
		"summarized/det-part00017.clmp": "ed1b7b9f834a018a45e40ef06126aae46b3b69ac30c96b3e89e220abdf77c401",
		"summarized/det-part00018.clmp": "250f38c7403dd5177eaf628173e2a893d0aba08311eeadb4b3edae5842e5e5ea",
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
