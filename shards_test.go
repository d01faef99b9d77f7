package climber_test

import (
	"path/filepath"
	"testing"

	"climber"
)

// TestOpenShardsRoundTrip covers ShardDirs, the conventional layout of a
// sharded deployment: base/shard-0 .. base/shard-n-1.
func TestOpenShardsRoundTrip(t *testing.T) {
	base := t.TempDir()
	dirs := climber.ShardDirs(base, 2)
	if filepath.Base(dirs[0]) != "shard-0" || filepath.Base(dirs[1]) != "shard-1" {
		t.Fatalf("unexpected layout: %v", dirs)
	}
}
