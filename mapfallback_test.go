package climber

import (
	"math"
	"testing"

	"climber/internal/storage"
)

// Where a mapping fails, the heap copy the store falls back to answers bit
// for bit as the mapping does — all four variants and prefix queries, with
// the cache and without, over partitions whose appended records sit in tails
// — and every load that fell back is counted in CacheStats.MapFallbacks.
func TestMapFallbackAnswersBitIdentical(t *testing.T) {
	if !storage.MapSupported() {
		t.Skip("mmap unsupported on this platform: every load is the fallback")
	}
	data := smallData(1300)
	dir := t.TempDir()
	db, err := Build(dir, data[:1200], ingestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append(data[1200:]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.IngestStats().TailFiles == 0 {
		t.Fatal("test premise broken: the drain left no tail")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// answers opens dir read-only and runs every query shape over it.
	answers := func(t *testing.T, opts ...Option) ([][]Result, CacheStats) {
		t.Helper()
		db, err := Open(dir, append(opts, WithReadOnly())...)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var out [][]Result
		for _, qi := range []int{5, 333, 901, 1204, 1250, 1299} {
			for _, v := range reindexVariants {
				res, err := db.Search(data[qi], 10, WithVariant(v))
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
			res, err := searchPrefix(db, data[qi][:32], 10)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out, db.CacheStats()
	}

	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"uncached", nil},
		{"cached", []Option{WithPartitionCacheBytes(1 << 28)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			mapped, st := answers(t, mode.opts...)
			if st.MapFallbacks != 0 || st.PartitionsLoaded == 0 {
				t.Fatalf("mapping: %d fallbacks in %d loads, want none", st.MapFallbacks, st.PartitionsLoaded)
			}
			restore := storage.FailMappings()
			copied, st := answers(t, mode.opts...)
			restore()
			if st.MapFallbacks == 0 || st.MapFallbacks != st.PartitionsLoaded {
				t.Fatalf("failing mappings: %d fallbacks in %d loads, want every load", st.MapFallbacks, st.PartitionsLoaded)
			}
			appended := 0
			for i := range mapped {
				if len(mapped[i]) != len(copied[i]) {
					t.Fatalf("answer %d: %d results mapped, %d from the heap", i, len(mapped[i]), len(copied[i]))
				}
				for j, r := range mapped[i] {
					if c := copied[i][j]; r.ID != c.ID || math.Float64bits(r.Dist) != math.Float64bits(c.Dist) {
						t.Fatalf("answer %d result %d: %+v mapped, %+v from the heap", i, j, r, c)
					}
					if r.ID >= 1200 {
						appended++
					}
				}
			}
			if appended == 0 {
				t.Fatal("no answer held an appended record: the tails were never compared")
			}
		})
	}
}
