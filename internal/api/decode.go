package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"climber"
	"climber/internal/series"
)

// ParseVariant maps the wire name of a query algorithm to its Variant.
func ParseVariant(s string) (climber.Variant, error) {
	switch s {
	case "", "adaptive-4x":
		return climber.Adaptive4X, nil
	case "knn":
		return climber.KNN, nil
	case "adaptive-2x":
		return climber.Adaptive2X, nil
	case "od-smallest":
		return climber.ODSmallest, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (knn, adaptive-2x, adaptive-4x, od-smallest)", s)
	}
}

// DecodeJSON unmarshals one JSON value from data, rejecting trailing
// garbage. encoding/json rejects NaN and infinite numbers on its own;
// CheckQuery additionally rejects finite values float32 cannot hold.
func DecodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// CheckQuery validates one query or appended series against the index
// shape: non-empty, exactly seriesLen values, all finite at the float32
// precision the index stores.
func CheckQuery(q []float64, seriesLen int) error {
	if len(q) == 0 {
		return fmt.Errorf("query is empty")
	}
	if len(q) != seriesLen {
		return fmt.Errorf("query length %d, index expects %d", len(q), seriesLen)
	}
	return series.CheckFloat32(q)
}

// checkOptions validates and normalises the shared request options in
// place: k defaults to DefaultK and is bounded by maxK, the variant must
// parse, and max_partitions / time_budget_ms must not be negative.
func checkOptions(k *int, variant string, maxPartitions, timeBudgetMS, maxK int) error {
	if *k == 0 {
		*k = DefaultK
	}
	if *k < 0 {
		return fmt.Errorf("k must be positive, got %d", *k)
	}
	if *k > maxK {
		return fmt.Errorf("k %d exceeds the server limit %d", *k, maxK)
	}
	if _, err := ParseVariant(variant); err != nil {
		return err
	}
	if maxPartitions < 0 {
		return fmt.Errorf("max_partitions must not be negative, got %d", maxPartitions)
	}
	if timeBudgetMS < 0 {
		return fmt.Errorf("time_budget_ms must not be negative, got %d", timeBudgetMS)
	}
	if timeBudgetMS > MaxTimeBudgetMS {
		return fmt.Errorf("time_budget_ms %d exceeds the limit %d (1 hour)", timeBudgetMS, MaxTimeBudgetMS)
	}
	return nil
}

// DecodeSearchRequest parses and validates a POST /search body. On success
// the request is well-formed: the query is finite with the indexed length,
// 1 <= k <= maxK, and the variant parses.
func DecodeSearchRequest(data []byte, seriesLen, maxK int) (*SearchRequest, error) {
	return decodeSearch(data, seriesLen, seriesLen, maxK, false)
}

// DecodePrefixRequest parses and validates a POST /search/prefix body. The
// query may be shorter than the indexed series length but no shorter than
// minLen (the index's PAA segment count — shorter prefixes cannot be
// transformed); every other guarantee matches DecodeSearchRequest.
func DecodePrefixRequest(data []byte, minLen, seriesLen, maxK int) (*SearchRequest, error) {
	return decodeSearch(data, minLen, seriesLen, maxK, true)
}

// decodeSearch is the one body of the two decoders above, which differ
// only in the query lengths they admit and how they word a refusal.
func decodeSearch(data []byte, minLen, seriesLen, maxK int, prefix bool) (*SearchRequest, error) {
	var req SearchRequest
	if err := DecodeJSON(data, &req); err != nil {
		return nil, err
	}
	if err := checkOptions(&req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS, maxK); err != nil {
		return nil, err
	}
	var err error
	switch {
	case !prefix:
		err = CheckQuery(req.Query, seriesLen)
	case len(req.Query) < minLen || len(req.Query) > seriesLen:
		err = fmt.Errorf("prefix query length %d outside [%d, %d]", len(req.Query), minLen, seriesLen)
	default:
		err = series.CheckFloat32(req.Query)
	}
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeBatchRequest parses and validates a POST /search/batch body with
// the same guarantees as DecodeSearchRequest for every query, plus
// 1 <= len(queries) <= maxBatch.
func DecodeBatchRequest(data []byte, seriesLen, maxK, maxBatch int) (*BatchRequest, error) {
	var req BatchRequest
	if err := DecodeJSON(data, &req); err != nil {
		return nil, err
	}
	if err := checkOptions(&req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS, maxK); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		return nil, fmt.Errorf("queries is empty")
	}
	if len(req.Queries) > maxBatch {
		return nil, fmt.Errorf("batch of %d queries exceeds the server limit %d", len(req.Queries), maxBatch)
	}
	for i, q := range req.Queries {
		if err := CheckQuery(q, seriesLen); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return &req, nil
}

// DecodeAppendRequest parses and validates a POST /append body: every
// series is finite with the indexed length, and 1 <= len(series) <=
// maxAppend.
func DecodeAppendRequest(data []byte, seriesLen, maxAppend int) (*AppendRequest, error) {
	var req AppendRequest
	if err := DecodeJSON(data, &req); err != nil {
		return nil, err
	}
	if len(req.Series) == 0 {
		return nil, fmt.Errorf("series is empty")
	}
	if len(req.Series) > maxAppend {
		return nil, fmt.Errorf("append of %d series exceeds the server limit %d", len(req.Series), maxAppend)
	}
	for i, s := range req.Series {
		if err := CheckQuery(s, seriesLen); err != nil {
			return nil, fmt.Errorf("series %d: %w", i, err)
		}
	}
	return &req, nil
}

// EngineRequest converts validated request options to the climber.Request
// they ask for; the caller adds the query and the endpoint's flags. The
// variant must have been validated during decode. A positive timeBudgetMS
// arms the anytime deadline budget (the deadline starts counting when the
// query starts).
func EngineRequest(k int, variant string, maxPartitions, timeBudgetMS int) climber.Request {
	v, _ := ParseVariant(variant) // validated during decode
	return climber.Request{
		K: k, Variant: v, MaxPartitions: maxPartitions,
		TimeBudget: time.Duration(timeBudgetMS) * time.Millisecond,
	}
}
