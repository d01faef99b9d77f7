// Command climber-inspect prints the structure of a built CLIMBER database:
// the group list with centroids (the paper's Figure 5 left side), trie
// shapes, and partition occupancy.
//
// Usage:
//
//	climber-inspect -dir ./db [-stats] [-groups] [-partitions] [-verify]
//
// -stats prints the skeleton's shape statistics: trie node counts, the
// leaf-depth histogram, and the distribution of actual partition sizes —
// the numbers that explain a database's query behaviour (deep tries mean
// long signature prefixes; a skewed partition distribution means uneven
// scan costs) — and each partition file's format version and summary width
// (the bytes per record its scans' lower bound reads). -partitions lists each partition's record count and, where
// appended records sit in a tail file beside the base, the tail's records,
// bytes and share of the base; -verify checks every base's and tail's
// checksum and that no record is in both files of a partition.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"climber"
	"climber/internal/series"
	"climber/internal/storage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("climber-inspect: ")

	var (
		dir        = flag.String("dir", "", "database directory (required)")
		stats      = flag.Bool("stats", false, "print skeleton shape statistics: node counts, depth histogram, partition size distribution, each partition file's format version and summary width")
		groups     = flag.Bool("groups", false, "list every group with its centroid and trie shape")
		partitions = flag.Bool("partitions", false, "list per-partition record counts")
		verify     = flag.Bool("verify", false, "checksum every partition file, base and tail, and check that no record is in both")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	db, err := climber.Open(*dir, climber.WithReadOnly())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	info := db.Info()
	skel := db.Index().Skeleton()
	cfg := skel.Cfg

	fmt.Printf("CLIMBER database %s\n", *dir)
	fmt.Printf("  series length:  %d\n", info.SeriesLen)
	fmt.Printf("  records:        %d\n", info.NumRecords)
	fmt.Printf("  groups:         %d (incl. fall-back G0)\n", info.NumGroups)
	fmt.Printf("  partitions:     %d\n", info.NumPartitions)
	fmt.Printf("  skeleton size:  %d bytes\n", info.SkeletonBytes)
	fmt.Printf("  scan kernel:    %s (this machine)\n", series.KernelName())
	fmt.Printf("  config:         w=%d r=%d m=%d capacity=%d alpha=%.3f decay=%v seed=%d\n",
		cfg.Segments, cfg.NumPivots, cfg.PrefixLen, cfg.Capacity, cfg.SampleRate, cfg.Decay, cfg.Seed)

	desc := skel.Describe()
	fmt.Printf("  trie forest:    %d nodes, %d leaves, max depth %d\n",
		desc.TrieNodes, desc.TrieLeaves, desc.MaxDepth)
	fmt.Printf("  leaf depths:    ")
	for depth, cnt := range desc.DepthHistogram {
		if cnt > 0 {
			fmt.Printf("d%d:%d ", depth, cnt)
		}
	}
	fmt.Println()
	fmt.Printf("  partition est.: min=%d max=%d (capacity %d)\n",
		desc.SmallestPartitionEst, desc.LargestPartitionEst, cfg.Capacity)

	if *stats {
		printStats(db)
		if err := printFileVersions(db); err != nil {
			log.Fatal(err)
		}
	}

	if *groups {
		fmt.Println("groups:")
		for gid := 0; gid < skel.NumGroups(); gid++ {
			g := skel.Groups[gid]
			nodes := g.Trie.Nodes()
			leaves := g.Trie.Leaves()
			centroid := "<*>"
			if g.Centroid != nil {
				centroid = g.Centroid.String()
			}
			fmt.Printf("  G%-4d centroid=%-40s est=%-8d trie: %d nodes, %d leaves, partitions=%v default=%d\n",
				gid, centroid, g.Trie.Count, len(nodes), len(leaves),
				skel.GroupPartitions(gid), g.DefaultPartition)
		}
	}

	parts := db.Index().Partitions()
	if files, records, bytes := db.Index().TailStats(); files > 0 {
		fmt.Printf("  tails:          %d partitions, %d records, %d bytes (appended records not yet folded into their partition's base)\n",
			files, records, bytes)
	}

	if *partitions {
		fmt.Println("partitions:")
		for pid, path := range parts.Paths {
			est := 0
			if pid < len(skel.PartitionEst) {
				est = skel.PartitionEst[pid]
			}
			tailPath, tail := parts.Tail(pid)
			base := parts.Counts[pid] - tail
			fmt.Printf("  beta%-4d records=%-8d estimated=%-8d path=%s\n", pid, parts.Counts[pid], est, path)
			if tail > 0 {
				var bytes int64
				if info, err := os.Stat(tailPath); err == nil {
					bytes = info.Size()
				}
				fmt.Printf("           tail: records=%d bytes=%d, %.1f%% of the base's %d records, path=%s\n",
					tail, bytes, 100*float64(tail)/float64(max(base, 1)), base, tailPath)
			}
		}
	}

	if *verify {
		bad := 0
		for pid, path := range parts.Paths {
			tail, _ := parts.Tail(pid)
			if err := verifyPartition(path, tail); err != nil {
				fmt.Printf("  beta%-4d CORRUPT: %v\n", pid, err)
				bad++
			}
		}
		if bad == 0 {
			fmt.Printf("verify: all %d partitions intact\n", len(parts.Paths))
		} else {
			log.Fatalf("verify: %d of %d partitions corrupt", bad, len(parts.Paths))
		}
	}
}

// verifyPartition checks the checksum of a partition's base file and, when it
// has a tail (tailPath not empty), of the tail too, and that no record ID is
// in both: a base is only ever read beside a tail whose records it does not
// hold.
func verifyPartition(base, tailPath string) error {
	p, err := storage.OpenPartition(base)
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.Verify(); err != nil || tailPath == "" {
		return err
	}
	tail, err := storage.OpenPartition(tailPath)
	if err != nil {
		return err
	}
	defer tail.Close()
	if err := tail.Verify(); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	inTail := make(map[int]bool, tail.Count())
	if err := tail.ScanAll(func(id int, _ []float64) error { inTail[id] = true; return nil }); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	return p.ScanAll(func(id int, _ []float64) error {
		if inTail[id] {
			return fmt.Errorf("record %d is in the base and in the tail", id)
		}
		return nil
	})
}

// printStats renders the skeleton's shape: per-trie node counts, the full
// leaf-depth histogram with bars, and the distribution of real partition
// sizes (quantiles plus a power-of-two size histogram).
func printStats(db *climber.DB) {
	skel := db.Index().Skeleton()
	desc := skel.Describe()

	fmt.Println("skeleton shape:")
	interior := desc.TrieNodes - desc.TrieLeaves
	fmt.Printf("  tries:  %d groups, %d nodes (%d interior, %d leaves), max depth %d\n",
		skel.NumGroups(), desc.TrieNodes, interior, desc.TrieLeaves, desc.MaxDepth)

	fmt.Println("  leaf depth histogram:")
	maxCnt := 0
	for _, cnt := range desc.DepthHistogram {
		if cnt > maxCnt {
			maxCnt = cnt
		}
	}
	for depth, cnt := range desc.DepthHistogram {
		if cnt == 0 {
			continue
		}
		fmt.Printf("    depth %-3d %8d %s\n", depth, cnt, bar(cnt, maxCnt))
	}

	counts := append([]int(nil), db.Index().Partitions().Counts...)
	if len(counts) == 0 {
		fmt.Println("  partitions: none")
		return
	}
	sort.Ints(counts)
	total := 0
	for _, c := range counts {
		total += c
	}
	q := func(p float64) int { return counts[int(p*float64(len(counts)-1))] }
	fmt.Printf("  partition sizes: %d partitions, %d records total\n", len(counts), total)
	fmt.Printf("    min=%d p25=%d median=%d p75=%d p90=%d max=%d mean=%.1f\n",
		counts[0], q(0.25), q(0.50), q(0.75), q(0.90), counts[len(counts)-1],
		float64(total)/float64(len(counts)))

	// Power-of-two size buckets show the skew a single mean hides.
	buckets := map[int]int{} // bucket exponent -> partition count
	maxExp := 0
	for _, c := range counts {
		exp := 0
		for v := c; v > 1; v >>= 1 {
			exp++
		}
		buckets[exp]++
		if exp > maxExp {
			maxExp = exp
		}
	}
	maxB := 0
	for _, n := range buckets {
		if n > maxB {
			maxB = n
		}
	}
	fmt.Println("  partition size distribution (records, power-of-two buckets):")
	for exp := 0; exp <= maxExp; exp++ {
		n := buckets[exp]
		if n == 0 {
			continue
		}
		fmt.Printf("    [%6d, %6d) %6d %s\n", 1<<exp, 1<<(exp+1), n, bar(n, maxB))
	}
}

// printFileVersions lists every partition file of the view, base and tail,
// with its format version and summary width: version 4 stores one summary
// byte per 8 readings, version 3 one per 16, version 2 none. An older file
// keeps its version until a drain, fold or reindex rewrites it.
func printFileVersions(db *climber.DB) error {
	parts := db.Index().Partitions()
	fmt.Println("  partition files (format version, summary bytes per record):")
	perVersion := map[int]int{}
	for pid, path := range parts.Paths {
		files := []string{path}
		if tail, _ := parts.Tail(pid); tail != "" {
			files = append(files, tail)
		}
		for _, f := range files {
			p, err := storage.OpenPartition(f)
			if err != nil {
				return err
			}
			fmt.Printf("    v%d summary=%-4d %s\n", p.Version(), p.SummaryWidth(), f)
			perVersion[p.Version()]++
			p.Close()
		}
	}
	fmt.Printf("    files by version: v4=%d v3=%d v2=%d\n", perVersion[4], perVersion[3], perVersion[2])
	return nil
}

// bar renders a proportional histogram bar, widest at 40 chars.
func bar(n, max int) string {
	if max <= 0 {
		return ""
	}
	w := n * 40 / max
	if w == 0 && n > 0 {
		w = 1
	}
	return strings.Repeat("#", w)
}
