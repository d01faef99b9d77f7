package cluster

import (
	"bytes"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"climber/internal/dataset"
	"climber/internal/storage"
)

// sparseSource is a Source without the IDs skip names: a reindex's source
// lacks the appended records still in the delta, below its ID bound.
type sparseSource struct {
	Source
	skip func(id int) bool
}

func (s sparseSource) ScanBlock(i int, fn func(id int, values []float64) error) error {
	return s.Source.ScanBlock(i, func(id int, values []float64) error {
		if s.skip(id) {
			return nil
		}
		return fn(id, values)
	})
}

// gappyRoutes routes the n records of a shuffle test into five partitions:
// an ID divisible by 7 is absent (Unrouted, and sparseSource skips it),
// partition 3 takes no record, partition 4 holds one cluster, and the rest
// spread over clusters -2..3 by a seeded draw.
func gappyRoutes(n int) []Route {
	rng := rand.New(rand.NewPCG(5, 9))
	routes := make([]Route, n)
	for id := range routes {
		switch p := rng.IntN(4); {
		case id%7 == 0:
			routes[id] = Unrouted
		case p == 3:
			routes[id] = Route{Partition: 4, Cluster: 11}
		default:
			routes[id] = Route{Partition: p, Cluster: storage.ClusterID(rng.IntN(6) - 2)}
		}
	}
	return routes
}

// Every file a shuffle writes is byte for byte the file MergePartitions
// writes of the same records, handed over in any order: the shuffle's
// counting sort and MergePartitions' sort agree on the canonical order, and
// both lay the file out through storage.Layout. Covered: a partition no
// record routes to (an empty file), a one-cluster partition, a negative
// cluster ID, IDs absent below the bound, and a source cut into blocks that
// the workers take in any order.
func TestShuffleMatchesMerge(t *testing.T) {
	const n, seriesLen = 700, 24
	c := testCluster(t)
	ds := dataset.RandomWalk(seriesLen, n, 13)
	routes := gappyRoutes(n)
	src := sparseSource{Blocks(ds, 37), func(id int) bool { return routes[id] == Unrouted }}
	ps, err := c.Shuffle(src, 5, Dest{Name: "shuf"}, routes)
	if err != nil {
		t.Fatal(err)
	}

	incoming := make([][]storage.Incoming, 5)
	for id, r := range routes {
		if r != Unrouted {
			incoming[r.Partition] = append(incoming[r.Partition], storage.Incoming{Cluster: r.Cluster, ID: id, Values: ds.Get(id)})
		}
	}
	rng := rand.New(rand.NewPCG(2, 3))
	ref := t.TempDir()
	for pid, in := range incoming {
		rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
		want := filepath.Join(ref, filepath.Base(ps.Paths[pid]))
		if _, _, err := storage.MergePartitions(want, seriesLen, nil, in, nil); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(ps.Paths[pid])
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("partition %d (%d records): shuffle wrote %d bytes, MergePartitions %d, and they differ",
				pid, len(in), len(got), len(wantBytes))
		}
		if ps.Counts[pid] != len(in) {
			t.Errorf("partition %d: Counts says %d records, %d routed there", pid, ps.Counts[pid], len(in))
		}
	}
	if ps.Counts[3] != 0 || len(incoming[4]) == 0 {
		t.Fatalf("premise: partition counts %v, want partition 3 empty and 4 not", ps.Counts)
	}
	p, err := storage.OpenPartition(ps.Paths[4])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if cis := p.Clusters(); len(cis) != 1 || cis[0].ID != 11 {
		t.Fatalf("partition 4 directory %v, want the one cluster 11", cis)
	}
}

// A record with a reading that is not finite in float32 fails the shuffle
// with the error MergePartitions would give for the first partition holding
// one — its first such record in file order, clusters ascending, then IDs —
// however the workers meet the records, and leaves no file behind.
func TestShuffleRefusesNonFiniteFirstByPartition(t *testing.T) {
	const n, seriesLen = 400, 16
	ds := dataset.RandomWalk(seriesLen, n, 17)
	routes := gappyRoutes(n)
	// Bad records in partitions 2 and 1; in partition 1 the one whose
	// cluster comes first in the file has the larger ID.
	var bad []int
	for _, want := range []Route{{2, 0}, {1, 3}, {1, 3}, {1, -2}} {
		for id := n - 1; id >= 0; id-- {
			if routes[id] == want && !slices.Contains(bad, id) {
				bad = append(bad, id)
				break
			}
		}
	}
	if len(bad) != 4 {
		t.Fatalf("premise: bad records %v, want four", bad)
	}
	for i, id := range bad {
		ds.Get(id)[i%seriesLen] = []float64{math.NaN(), math.Inf(1), 1e39, -1e39}[i]
	}
	// The reference gets the record as the source hands it over: rounded
	// to float32, so -1e39 arrives as -Inf.
	first := bad[3] // partition 1, cluster -2: first in partition 1's file
	rounded := make([]float64, seriesLen)
	for j, v := range ds.Get(first) {
		rounded[j] = float64(float32(v))
	}
	_, _, want := storage.MergePartitions(filepath.Join(t.TempDir(), "ref"), seriesLen, nil,
		[]storage.Incoming{{Cluster: routes[first].Cluster, ID: first, Values: rounded}}, nil)
	if want == nil || !strings.Contains(want.Error(), "float32") {
		t.Fatalf("premise: MergePartitions of record %d returned %v", first, want)
	}
	src := sparseSource{Blocks(ds, 23), func(id int) bool { return routes[id] == Unrouted }}
	for trial := 0; trial < 5; trial++ {
		root := filepath.Join(t.TempDir(), "gen")
		c := New(root, 4)
		_, err := c.Shuffle(src, 5, Dest{Name: "shuf"}, routes)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("trial %d: shuffle error %v, want %v", trial, err, want)
		}
		if ents, err := os.ReadDir(root); !os.IsNotExist(err) || len(ents) != 0 {
			t.Fatalf("trial %d: refused shuffle left %v (%v)", trial, ents, err)
		}
	}
}

// A route for every record the source holds, and none for one it does not:
// a record whose ID has no route is an error, and so is one past the routes.
func TestShuffleRejectsUnroutedRecord(t *testing.T) {
	c := testCluster(t)
	bs := Blocks(dataset.RandomWalk(8, 20, 2), 5)
	routes := make([]Route, bs.Len())
	routes[13] = Unrouted
	if _, err := c.Shuffle(bs, 1, Dest{Name: "rw"}, routes); err == nil || !strings.Contains(err.Error(), "record 13") {
		t.Fatalf("shuffle of a record without a route: %v", err)
	}
	if _, err := c.Shuffle(bs, 1, Dest{Name: "rw"}, routes[:10]); err == nil {
		t.Fatal("shuffle of records past the routes succeeded")
	}
}

// The routes a conversion leaves for IDs its source lacks are Unrouted.
func TestConvertLeavesAbsentIDsUnrouted(t *testing.T) {
	c := testCluster(t)
	bs := Blocks(dataset.RandomWalk(8, 30, 2), 7)
	src := sparseSource{bs, func(id int) bool { return id%4 == 1 }}
	routes, err := c.Convert(src, 35, func(values []float64) Route { return Route{Partition: 0, Cluster: 1} })
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range routes {
		if absent := id%4 == 1 || id >= 30; absent != (r == Unrouted) {
			t.Fatalf("route of ID %d = %v", id, r)
		}
	}
	if _, err := c.Convert(bs, 29, func([]float64) Route { return Route{} }); err == nil {
		t.Fatal("conversion of an ID at the bound succeeded")
	}
}
