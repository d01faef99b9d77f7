// Command climber-build constructs a CLIMBER index over a dataset file
// produced by climber-gen.
//
// Usage:
//
//	climber-build -data rw.clmb -dir ./db -pivots 200 -prefix 10 -capacity 2000
//
// The resulting database directory is queried with climber-query and
// inspected with climber-inspect. -workers fans every build phase — skeleton
// construction, block scans, the shuffle flush — across that many goroutines
// (0 = all cores); the built index is bit-identical at any worker count, so
// the flag only trades build time.
//
// With -restore the command rebuilds a live database directory from a
// backup taken by POST /backup (or climber.DB.Backup):
//
//	climber-build -restore ./backups/nightly -dir ./db
//
// The backup tree is copied verbatim into -dir (which must not yet exist),
// then opened and verified; the restored database serves exactly the
// records the backup captured.
//
// With -shards N the dataset is split round-robin into N independent
// databases <dir>/shard-0 .. <dir>/shard-N-1, each a complete CLIMBER
// directory (own skeleton, partitions, WAL), plus a <dir>/shards.json
// topology template pointing at localhost ports 9001..900N — edit the URLs
// for a real deployment, start one climber-serve per shard directory, and
// front them with climber-router. Under the round-robin split record i of
// the dataset keeps global ID i through the router.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"climber"
	"climber/internal/dataset"
	"climber/internal/series"
	"climber/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-build: ")

	var (
		data     = flag.String("data", "", "dataset file from climber-gen (required)")
		dir      = flag.String("dir", "", "output database directory (required)")
		segments = flag.Int("segments", 16, "PAA segments w")
		pivots   = flag.Int("pivots", 200, "number of pivots r")
		prefix   = flag.Int("prefix", 10, "pivot prefix length m")
		capacity = flag.Int("capacity", 2000, "partition capacity in records")
		sample   = flag.Float64("sample", 0.1, "skeleton sampling rate alpha")
		seed     = flag.Uint64("seed", 42, "build seed")
		workers  = flag.Int("workers", 0, "build parallelism (0 = all cores, 1 = sequential; output is bit-identical at any count)")
		decay    = flag.String("decay", "exponential", "pivot weight decay: exponential or linear")
		shards   = flag.Int("shards", 0, "split the dataset into this many shard databases under -dir (0 = one unsharded database)")
		port     = flag.Int("shard-port", 9001, "first localhost port in the generated shards.json template")
		restore  = flag.String("restore", "", "restore a backup directory into -dir instead of building from -data")
	)
	flag.Parse()
	if *restore != "" {
		if *dir == "" {
			flag.Usage()
			os.Exit(2)
		}
		restoreBackup(*restore, *dir)
		return
	}
	if *data == "" || *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	ds, err := dataset.LoadFile(*data)
	if err != nil {
		log.Fatal(err)
	}
	opts := []climber.Option{
		climber.WithSegments(*segments),
		climber.WithPivots(*pivots),
		climber.WithPrefixLen(*prefix),
		climber.WithCapacity(*capacity),
		climber.WithSampleRate(*sample),
		climber.WithSeed(*seed),
		climber.WithBuildWorkers(*workers),
	}
	if *decay == "linear" {
		opts = append(opts, climber.WithLinearDecay())
	}

	if *shards > 1 {
		buildShards(ds, *dir, *shards, *port, opts)
		return
	}

	db, err := climber.BuildDataset(*dir, ds, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	printSummary(*dir, db)
}

// buildShards splits ds round-robin, builds one database per shard under
// dir (the climber.ShardDirs layout), and writes a shards.json topology
// template next to them.
func buildShards(ds *series.Dataset, dir string, n, firstPort int, opts []climber.Option) {
	topo := shard.LocalTopology(n, firstPort)
	dirs := climber.ShardDirs(dir, n)
	for s, sub := range shard.SplitDataset(ds, n) {
		db, err := climber.BuildDataset(dirs[s], sub, opts...)
		if err != nil {
			log.Fatalf("shard %d: %v", s, err)
		}
		printSummary(dirs[s], db)
		db.Close()
	}
	topoPath := filepath.Join(dir, "shards.json")
	if err := topo.Save(topoPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote topology template %s — edit the URLs, start one\n", topoPath)
	fmt.Printf("climber-serve per shard directory, then: climber-router -topology %s\n", topoPath)
}

// restoreBackup copies a backup tree (POST /backup output: a self-contained
// database directory with manifest paths relative to its root) verbatim
// into dst, then opens the copy to verify it. dst must not already exist:
// restoring over a live database would silently mix two record sets.
func restoreBackup(src, dst string) {
	if _, err := os.Stat(dst); err == nil {
		log.Fatalf("restore target %s already exists; refusing to overwrite", dst)
	} else if !os.IsNotExist(err) {
		log.Fatal(err)
	}
	if err := copyTree(src, dst); err != nil {
		log.Fatalf("restore: %v", err)
	}
	db, err := climber.Open(dst)
	if err != nil {
		log.Fatalf("restored database failed verification: %v", err)
	}
	defer db.Close()
	info := db.Info()
	fmt.Printf("restored backup %s into %s\n", src, dst)
	fmt.Printf("  records:        %d (length %d)\n", info.NumRecords, info.SeriesLen)
	fmt.Printf("  groups:         %d (incl. fall-back G0)\n", info.NumGroups)
	fmt.Printf("  partitions:     %d\n", info.NumPartitions)
}

// copyTree recursively copies the directory src to dst (which must not
// exist). Backups contain only regular files and directories.
func copyTree(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		sp := filepath.Join(src, e.Name())
		dp := filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyTree(sp, dp); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			return err
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func printSummary(dir string, db *climber.DB) {
	info := db.Info()
	stats := db.Index().Stats
	fmt.Printf("built CLIMBER index in %s\n", dir)
	fmt.Printf("  records:        %d (length %d)\n", info.NumRecords, info.SeriesLen)
	fmt.Printf("  groups:         %d (incl. fall-back G0)\n", info.NumGroups)
	fmt.Printf("  partitions:     %d\n", info.NumPartitions)
	fmt.Printf("  skeleton size:  %d bytes\n", info.SkeletonBytes)
	fmt.Printf("  build time:     total=%v skeleton=%v conversion=%v redistribution=%v\n",
		stats.Total.Round(1e6), stats.Skeleton.Round(1e6),
		stats.Conversion.Round(1e6), stats.Redistribution.Round(1e6))
}
