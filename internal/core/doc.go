// Package core implements CLIMBER itself: the CLIMBER-FX feature-extraction
// pipeline, the two-level CLIMBER-INX index (paper Sections IV-V), and the
// CLIMBER-kNN / CLIMBER-kNN-Adaptive query algorithms (Section VI).
//
// # Structure
//
// An Index is a Skeleton plus partition files. The skeleton — the pivot
// set, the data-series groups with their rank-insensitive centroids, and
// the rank-sensitive trie under each group (paper Figure 5) — is small
// enough to broadcast and serialises into the index.clms manifest
// (SaveIndex/OpenIndex, io.go). The data series themselves live in
// capacity-bounded partition files managed by the cluster/storage
// substrate, grouped on disk by record cluster (trie node).
//
// The main flows through the package:
//
//   - Build (build.go): sample → pivots → groups → tries → route every
//     record → pack partition files; the phase timings land in BuildStats.
//     construct is the one implementation, reading a cluster.Source: Build
//     runs it over a dataset in memory cut into blocks, and
//     RebuildGeneration (reindex.go) over the partition files of the
//     generation it replaces, into fsynced files of the same store named
//     for the reindex count (cluster.GenerationName).
//   - Query / QueryBatch (search.go, batch.go) — full-length, prefix and
//     progressive queries are one entry point, told apart by
//     SearchOptions.Prefix and the sink argument: the planner (plan.go)
//     navigates the skeleton into a ranked list of per-partition
//     PlanSteps; the executor (exec.go) runs the steps one at a time, in
//     rank order, on the query's goroutine — each step ranking its
//     partition's files and then the same clusters' delta runs into the
//     query's one top-k, and the query stopping at a step boundary when a
//     Budget is exhausted or a progressive snapshot sink says so — then
//     widens within loaded partitions when the plan covers fewer than K
//     partition records and ranks by true Euclidean distance.
//   - RouteNew / Drain (append.go): route new records through the existing
//     skeleton and merge them into new partition files — each partition's
//     small tail, folded into a new base when it reaches 1/foldFraction of
//     it (appendToPartition is the one place a partition file is written
//     after the build; Drain with foldAll folds them all for backup and
//     reindex) — then publish the view naming them; record IDs come from a
//     single atomic counter (ReserveIDs) so concurrent writers never
//     collide.
//   - Generation (gen.go): one immutable view — skeleton, partition files,
//     delta, all fixed by NewGeneration. No file changes under its name: a
//     drain or a reindex builds the next view beside the current one and
//     commits it with Publish, which saves dir/index.clms, fsyncs dir, and
//     has SwapGeneration publish it and retire the files only older views
//     named, once no query holds one.
//     A drain publishes its files with a fresh delta; older views keep the
//     delta that holds what the new files hold, so no view holds a record
//     twice. Close stops the retirements still waiting for a reader.
//   - DeltaSource (delta.go): the seam through which the streaming
//     ingestion layer (internal/ingest) makes acked-but-uncompacted
//     records visible to every search: runs in the partition record
//     layout, ranked in each plan step right after the same clusters of
//     the partition's files, by the same scan. The ingestion layer hands
//     each view it publishes its delta and appends into the current
//     view's.
//
// Layers above: the public climber.DB wraps an Index with the ingestion
// pipeline; internal/server serves one DB over
// HTTP; internal/shard scatter-gathers over many such servers.
package core
