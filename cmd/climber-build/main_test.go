package main

import (
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"climber"
	"climber/internal/dataset"
)

// -restore of a backup taken while appended records sat in partition tails:
// the backup folds them into the bases first, so what is restored is base
// files only and holds every record.
func TestRestoreBackupTakenWithTails(t *testing.T) {
	ds := dataset.RandomWalk(64, 1300, 5)
	live := filepath.Join(t.TempDir(), "live")
	db, err := climber.BuildDataset(live, ds.Slice(0, 1200),
		climber.WithSegments(8), climber.WithPivots(24), climber.WithPrefixLen(4), climber.WithCapacity(200),
		climber.WithSampleRate(0.2), climber.WithBlockSize(250), climber.WithSeed(3),
		climber.WithCompactionRecords(1<<20), climber.WithCompactionAge(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fresh := make([][]float64, 100)
	for i := range fresh {
		fresh[i] = ds.Get(1200 + i)
	}
	if _, err := db.Append(fresh); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.IngestStats().TailFiles == 0 {
		t.Fatal("test premise broken: the drain left no tail")
	}
	backup := filepath.Join(t.TempDir(), "backup")
	if err := db.Backup(context.Background(), backup); err != nil {
		t.Fatal(err)
	}

	restored := filepath.Join(t.TempDir(), "restored")
	restoreBackup(backup, restored) // exits the test binary on failure
	err = filepath.WalkDir(restored, func(p string, _ fs.DirEntry, err error) error {
		if strings.HasSuffix(p, ".tail") {
			t.Errorf("restored tree holds a tail: %s", p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := climber.Open(restored, climber.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Info().NumRecords; n != 1300 {
		t.Fatalf("restored database holds %d records, want 1300", n)
	}
	hits := 0
	for i, q := range fresh[:20] {
		res, err := re.Search(q, 3, climber.WithVariant(climber.ODSmallest))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 && res[0].ID == 1200+i {
			hits++
		}
	}
	if hits < 18 { // the tie-group lottery of ROADMAP item 1 may cost one or two
		t.Fatalf("only %d of 20 appended records answer their own query from the restored database", hits)
	}
}
