package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"climber/internal/dataset"
)

// DecodeSkeleton must reject corrupted inputs with an error — never panic,
// never hang, never return a half-built skeleton silently. We flip bytes at
// random positions of a valid encoding and also truncate at every 64-byte
// boundary.
func TestDecodeSkeletonCorruptionRobustness(t *testing.T) {
	cfg := testConfig()
	sample := dataset.RandomWalk(64, 400, 3)
	skel, err := BuildSkeleton(sample, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := skel.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	rng := rand.New(rand.NewPCG(77, 88))
	for trial := 0; trial < 200; trial++ {
		corrupted := make([]byte, len(valid))
		copy(corrupted, valid)
		// Flip 1-4 random bytes.
		for f := 0; f < 1+rng.IntN(4); f++ {
			corrupted[rng.IntN(len(corrupted))] ^= byte(1 + rng.IntN(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: DecodeSkeleton panicked: %v", trial, r)
				}
			}()
			back, err := DecodeSkeleton(bytes.NewReader(corrupted))
			// Either an error, or a structurally coherent skeleton (byte
			// flips in pivot coordinates or counts can decode fine).
			if err == nil && back == nil {
				t.Fatalf("trial %d: nil skeleton without error", trial)
			}
		}()
	}

	for cut := 0; cut < len(valid); cut += 64 {
		if _, err := DecodeSkeleton(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}

	// Centroid pivot IDs index the assigner's bitsets, so a centroid whose
	// IDs leave [0, NumPivots) or stop ascending strictly must be an error.
	c := skel.Groups[1].Centroid
	var enc []byte
	for _, v := range append([]int{len(c)}, c...) {
		enc = binary.LittleEndian.AppendUint64(enc, uint64(v))
	}
	at := bytes.Index(valid, enc)
	if at < 0 || len(c) < 2 {
		t.Fatalf("centroid %v of group 1 not found in the encoding", c)
	}
	mutations := []struct {
		name string
		pos  int // index into the centroid
		id   int
	}{
		{"ID = NumPivots", 0, cfg.NumPivots},
		{"negative ID", 0, -1},
		{"huge negative ID", len(c) - 1, -77687093572141046},
		{"huge ID", len(c) - 1, 1 << 62},
		{"duplicate ID", 1, c[0]},
		{"descending IDs", 0, c[1] + 1},
	}
	for _, mu := range mutations {
		corrupted := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(corrupted[at+8*(1+mu.pos):], uint64(mu.id))
		if _, err := DecodeSkeleton(bytes.NewReader(corrupted)); err == nil {
			t.Errorf("%s: centroid[%d] = %d decoded without error", mu.name, mu.pos, mu.id)
		}
	}
}

func TestDisableWDTieBreakRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.DisableWDTieBreak = true
	sample := dataset.RandomWalk(64, 400, 3)
	skel, err := BuildSkeleton(sample, 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if skel.Assigner.UseWeightTieBreak {
		t.Fatal("assigner still uses WD tie-break with DisableWDTieBreak set")
	}
	var buf bytes.Buffer
	if err := skel.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSkeleton(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Assigner.UseWeightTieBreak {
		t.Fatal("DisableWDTieBreak lost in serialisation round trip")
	}
	if !back.Cfg.DisableWDTieBreak {
		t.Fatal("config flag lost in round trip")
	}
}
