// Package shard scales CLIMBER past one machine: it partitions the record
// keyspace across N independent climber.DB instances — each a full database
// directory with its own skeleton, partition files, WAL, delta index, and
// compactor, served by an ordinary climber-serve process — and fronts them
// with a scatter-gather router (cmd/climber-router). The router is an
// api.Backend: the HTTP dialect — routes, admission, body limits, decoding,
// statuses, counters — is the one api.Service front a single-node server
// mounts too, so a client cannot tell the two apart, and this package holds
// no function that takes an http.ResponseWriter. What is here is what only a
// router does: scatter, the one eachShard fan-out everything else uses,
// forward, the health prober, mergeTopK, rendezvous append, and the rows of
// the counters it shows (rows.go).
//
// # Topology and global IDs
//
// A Topology (shards.json, loaded at start) names every shard and its base
// URL. Each shard owns one residue class of the global record-ID space:
//
//	global = local*Stride() + IDBase
//
// where local is the shard's own dense build/append sequence. Splitting a
// dataset round-robin (SplitDataset) makes the encoding exact — record i of
// the original dataset keeps global ID i — so a sharded deployment is
// indistinguishable from an unsharded one on the wire. Two topology entries
// sharing an IDBase declare read replicas; the merge deduplicates their
// answers by global ID.
//
// # Routing
//
// Reads (/search, /search/prefix, /search/batch) scatter to every shard —
// the keyspace is hash-partitioned, so any shard may hold a neighbour — and
// the router merges the per-shard top-k by ascending (distance, global ID),
// the same total order the unsharded engine uses. Failure policy is
// configurable: the all-shards policy (Quorum 0) fails fast, cancelling the
// surviving sub-queries on the first shard error; a positive Quorum serves
// degraded answers marked partial while at least that many shards answer.
// The client's request is decoded once, by the front; the decoded request
// crosses the hop as one binary frame (api.Frame) and the shards answer in
// frames, so neither side parses the numbers as text again. The client is
// answered in the spelling it asked in. Shards accept both spellings and
// routers send only frames: a fleet upgrades shards first.
//
// Appends route each series by rendezvous (highest-random-weight) hashing
// over its global append sequence number (Topology.Rank), walking the rank
// order to the first healthy shard; each shard's WAL acks its own
// sub-batch (sent as a frame too), so crash recovery stays per-shard.
//
// A background prober keeps per-shard health flags that /healthz reports
// and the quorum and append paths consult. GET /info folds the shards'
// shapes: sums per ID namespace, the lowest generation any shard serves, and
// a refusal (503, for queries too) when shards disagree on the series length.
package shard
