package shard

import "climber/internal/api"

// InfoResponse is the router's body for GET /info: the aggregate shape of
// the sharded database. Sums count each ID namespace once, so read
// replicas do not double-count records; Generation is the lowest any shard
// that answered serves.
type InfoResponse struct {
	api.InfoResponse
	NumShards      int `json:"num_shards"`
	ShardsAnswered int `json:"shards_answered"`
}

// HealthzResponse is the router's body for GET /healthz. Status is "ok"
// when every shard is up, "degraded" while the configured policy can still
// be served, and accompanies a 503 otherwise.
type HealthzResponse struct {
	Status string `json:"status"`
	// Shards maps shard ID to "up" or "down" per the last health probe.
	Shards map[string]string `json:"shards"`
}
