// Package api is the HTTP dialect of the CLIMBER serving stack, written
// once: the request/response types, their decode-and-validate functions, and
// Service, the front that owns every route, limit, status and counter a
// client can observe. A Service calls a Backend for the answers;
// cmd/climber-serve mounts one over an open database (internal/server) and
// cmd/climber-router one over a scatter-gather of such services
// (internal/shard), and the two can differ in nothing but what stands behind
// that interface. A client cannot tell a single node from a sharded
// deployment by the shapes on the wire, and the router merges responses it
// decodes into the very types the shard encoded.
//
// The front's numbers are declared by the backend as Rows — stats key,
// metric name, help, kind, once each — and both GET /stats and GET /metrics
// are rendered from them (Counters, Meters). RegisterFlags and Flags.Run are
// the flag set and the listen/drain runner the two commands share.
//
// The query and append bodies have two spellings (Spelling) that decode to
// identical requests and are held to identical limits: JSON, which clients
// write, and a little-endian binary frame (frame.go, Content-Type
// FrameContentType), which the router sends its shards on the same
// endpoints; either is answered in kind — so a routed query's numbers are
// parsed from text once, at the router, and cross the hop as the float64s
// they became. JSON itself is read by a single-pass decoder
// (fastdecode.go) that handles the canonical spelling and declines
// everything else to encoding/json (DecodeJSON), which stays the
// specification of the dialect and the source of every error text. It
// converts each number in that same pass, exactly (float.go), and falls
// back to strconv.ParseFloat only where that conversion declines. Bodies
// are read into buffers recycled through one pool (Buffer, ReadBody,
// ReadAll). ARCHITECTURE.md, "Wire contract", has the frame layout and the
// upgrade order (shards before routers).
package api

import (
	"climber"
	"climber/internal/obs"
)

// DefaultK is the answer-set size used when a request omits k.
const DefaultK = 10

// MaxTimeBudgetMS caps time_budget_ms at one hour. Anything longer is a
// client error, and the bound keeps the servers' derived-deadline
// arithmetic (multiples of the budget) far away from duration overflow.
const MaxTimeBudgetMS = 3_600_000

// SearchRequest is the body of POST /search and POST /search/prefix. For
// /search the query must have the indexed series length; for /search/prefix
// it may be shorter (see Spelling.DecodePrefix).
type SearchRequest struct {
	// Query is the query series.
	Query []float64 `json:"query"`
	// K is the answer-set size; omitted or zero means DefaultK.
	K int `json:"k,omitempty"`
	// Variant selects the query algorithm: "knn", "adaptive-2x",
	// "adaptive-4x" (default) or "od-smallest".
	Variant string `json:"variant,omitempty"`
	// MaxPartitions, when positive, bounds the query to that many
	// partition loads: the adaptive variants shrink their plan to fit, and
	// every variant stops loading at the cap, marking the answer partial
	// when the plan wanted more.
	MaxPartitions int `json:"max_partitions,omitempty"`
	// TimeBudgetMS, when positive, is the anytime-query budget in
	// milliseconds: the engine stops at the first plan-step boundary past
	// it and answers with the best partial result (marked by the partial
	// and steps_executed response fields). The server additionally bounds
	// the whole request at a small multiple of the budget, so a budgeted
	// query can never hang past its promise. Prefer max_partitions for
	// pure I/O caps.
	TimeBudgetMS int `json:"time_budget_ms,omitempty"`
	// Explain, when true, traces the query and returns the span tree and
	// the planner's decisions in the response (the explain and trace
	// fields). Routed requests are forwarded with the flag intact, so a
	// router answer nests every shard's span tree under its own.
	Explain bool `json:"explain,omitempty"`
}

// BatchRequest is the body of POST /search/batch. The per-request options
// apply to every query of the batch.
type BatchRequest struct {
	// Queries are the query series; each must have the indexed length.
	Queries [][]float64 `json:"queries"`
	// K is the per-query answer-set size; omitted or zero means DefaultK.
	K int `json:"k,omitempty"`
	// Variant selects the query algorithm for every query of the batch.
	Variant string `json:"variant,omitempty"`
	// MaxPartitions, when positive, bounds every query of the batch to
	// that many partition loads (see SearchRequest.MaxPartitions).
	MaxPartitions int `json:"max_partitions,omitempty"`
	// TimeBudgetMS, when positive, is the anytime budget for the batch as
	// a whole: the deadline is fixed once, so queries still running when
	// it passes answer partially (see SearchRequest.TimeBudgetMS).
	TimeBudgetMS int `json:"time_budget_ms,omitempty"`
	// Explain, when true, traces the batch and returns the span tree (one
	// child span per query) in the response's trace field. Per-query
	// planner decisions are a single-query concern; use /search for them.
	Explain bool `json:"explain,omitempty"`
}

// AppendRequest is the body of POST /append.
type AppendRequest struct {
	// Series are the data series to ingest; each must have the indexed
	// length.
	Series [][]float64 `json:"series"`
}

// AppendResponse is the body of a successful POST /append. When it arrives
// the series are durable (WAL-fsynced) and visible to /search.
type AppendResponse struct {
	// IDs are the assigned record IDs, aligned positionally with the
	// request's Series.
	IDs []int `json:"ids"`
}

// Result is one neighbour in a response: the record ID and its Euclidean
// distance to the query, under the keys "id" and "dist" — the engine's own
// result type, encoded as the scan produced it.
type Result = climber.Result

// SearchResponse is the body of a successful POST /search or POST
// /search/prefix.
type SearchResponse struct {
	// Results are the approximate nearest neighbours, ascending by distance.
	Results []Result `json:"results"`
	// Stats is the effort behind the query (partitions scanned, records
	// compared, cache traffic), summed over the shards of a routed answer.
	Stats climber.Stats `json:"stats"`
	// ShardsAsked and ShardsAnswered report the scatter fan-out of a routed
	// answer — at least 1 each — and are absent from a single node's; under
	// a quorum policy ShardsAnswered is the smaller when a shard is down.
	// Frames do not carry them.
	ShardsAsked    int `json:"shards_asked,omitempty"`
	ShardsAnswered int `json:"shards_answered,omitempty"`
	// Partial marks an answer that is not the complete one: a budget
	// (time_budget_ms or max_partitions) stopped the query, on this node or
	// on any shard, before its full plan, or a router merged it from fewer
	// shards than the topology holds. The results are the best answer for
	// the effort spent.
	Partial bool `json:"partial,omitempty"`
	// StepsExecuted counts the plan steps that ran, summed over shards;
	// together with Stats.StepsPlanned it tells how much of the plan a
	// partial answer covered.
	StepsExecuted int `json:"steps_executed,omitempty"`
	// Explain is the planner's navigation and ranked-plan record; present
	// only when the request set explain. On a routed response the map is
	// keyed by shard ID (each shard planned independently); a single node
	// answers under the "" key.
	Explain map[string]*ExplainData `json:"explain,omitempty"`
	// Trace is the query's span tree; present only when the request set
	// explain. A routed response nests each shard's tree under the
	// router's per-shard spans.
	Trace *obs.SpanData `json:"trace,omitempty"`
}

// ExplainData is the engine's query explanation, carried unconverted to
// the wire: how the skeleton was navigated and what the ranked plan looked
// like, step scores included (see climber.Explanation for the fields; its
// JSON tags are the wire keys).
type ExplainData = climber.Explanation

// BatchResponse is the body of a successful POST /search/batch; Results
// aligns positionally with the request's Queries.
type BatchResponse struct {
	Results [][]Result `json:"results"`
	// ShardsAsked and ShardsAnswered are those of SearchResponse.
	ShardsAsked    int `json:"shards_asked,omitempty"`
	ShardsAnswered int `json:"shards_answered,omitempty"`
	// Partial marks a batch in which at least one query's budget stopped
	// it before its full plan, or that a router merged from a shard subset.
	Partial bool `json:"partial,omitempty"`
	// StepsExecuted sums the executed plan steps across the batch (and
	// across shards).
	StepsExecuted int `json:"steps_executed,omitempty"`
	// Truncated counts the queries a budget stopped, where the answering
	// node knows it; it feeds the slow-query log and never crosses the wire.
	Truncated int `json:"-"`
	// Trace is the batch's span tree (one child per query); present only
	// when the request set explain.
	Trace *obs.SpanData `json:"trace,omitempty"`
}

// InfoResponse is the body of GET /info: the database's structural shape.
type InfoResponse struct {
	SeriesLen     int `json:"series_len"`
	NumRecords    int `json:"num_records"`
	NumGroups     int `json:"num_groups"`
	NumPartitions int `json:"num_partitions"`
	SkeletonBytes int `json:"skeleton_bytes"`
	// Generation is the active index generation; it increments on every
	// completed online reindex (POST /reindex).
	Generation int `json:"generation"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
