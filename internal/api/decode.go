package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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

// DecodeJSON unmarshals data, which must be exactly one JSON value plus
// whitespace, into v. encoding/json rejects NaN and infinite numbers on its
// own; CheckQuery additionally rejects finite values float32 cannot hold.
func DecodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Not dec.More(): that is false at a stray ']' or '}'.
	if rest := (scanner{data: data, pos: int(dec.InputOffset())}); !rest.atEnd() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// Spelling is one of the two encodings of a query or append body: JSON
// text, or the binary frame of frame.go. Both decode to identical requests
// and are held to identical limits, so everything past the decoder — and
// every client — is indifferent to which one a peer chose.
type Spelling uint8

// The spellings. JSON is the zero value and the default of every endpoint.
const (
	JSON Spelling = iota
	Frame
)

// ContentType is the Content-Type header value that announces sp.
func (sp Spelling) ContentType() string {
	if sp == Frame {
		return FrameContentType
	}
	return "application/json"
}

// SpellingOf reads a message's spelling off its Content-Type header;
// anything that is not the frame's type is JSON, as it always was.
func SpellingOf(h http.Header) Spelling {
	if h.Get("Content-Type") == FrameContentType {
		return Frame
	}
	return JSON
}

// decodeBody decodes data, in sp's spelling, into a fresh request of type
// T without validating it. JSON tries the single-pass decoder first and
// hands whatever that declines to encoding/json.
func decodeBody[T any](sp Spelling, data []byte, fields func(*T) requestFields, sizeHint, maxRows int) (*T, error) {
	req := new(T)
	switch {
	case sp == Frame:
		if err := DecodeFrame(data, req); err != nil {
			return nil, err
		}
	case !fastDecode(data, fields(req), sizeHint, maxRows):
		req = new(T) // declined: drop what the fast path had filled in
		if err := DecodeJSON(data, req); err != nil {
			return nil, err
		}
	}
	return req, nil
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

// DecodeSearchRequest is JSON.DecodeSearch. Pinned by bench/.
func DecodeSearchRequest(data []byte, seriesLen, maxK int) (*SearchRequest, error) {
	return JSON.DecodeSearch(data, seriesLen, maxK)
}

// DecodeSearch parses and validates a POST /search body in sp's spelling. On
// success the request is well-formed: the query is finite with the indexed
// length, 1 <= k <= maxK, and the variant parses.
func (sp Spelling) DecodeSearch(data []byte, seriesLen, maxK int) (*SearchRequest, error) {
	return sp.decodeSearch(data, seriesLen, seriesLen, maxK, false)
}

// DecodePrefix parses and validates a POST /search/prefix body. The query
// may be shorter than the indexed series length but no shorter than minLen
// (the index's PAA segment count — shorter prefixes cannot be transformed);
// every other guarantee matches DecodeSearch.
func (sp Spelling) DecodePrefix(data []byte, minLen, seriesLen, maxK int) (*SearchRequest, error) {
	return sp.decodeSearch(data, minLen, seriesLen, maxK, true)
}

// decodeSearch is the one body of the two decoders above, which differ
// only in the query lengths they admit and how they word a refusal.
func (sp Spelling) decodeSearch(data []byte, minLen, seriesLen, maxK int, prefix bool) (*SearchRequest, error) {
	req, err := decodeBody(sp, data, searchFields, seriesLen, 0)
	if err != nil {
		return nil, err
	}
	if err := req.validate(minLen, seriesLen, maxK, prefix); err != nil {
		return nil, err
	}
	return req, nil
}

// validate applies the limits of /search (or, with prefix, /search/prefix)
// to a decoded request, normalising k. The validate methods are the second
// half of every decoder, whatever spelling the first half read.
func (req *SearchRequest) validate(minLen, seriesLen, maxK int, prefix bool) error {
	if err := checkOptions(&req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS, maxK); err != nil {
		return err
	}
	switch {
	case !prefix:
		return CheckQuery(req.Query, seriesLen)
	case len(req.Query) < minLen || len(req.Query) > seriesLen:
		return fmt.Errorf("prefix query length %d outside [%d, %d]", len(req.Query), minLen, seriesLen)
	}
	return series.CheckFloat32(req.Query)
}

// DecodeBatch parses and validates a POST /search/batch body with the same
// guarantees as DecodeSearch for every query, plus 1 <= len(queries) <=
// maxBatch.
func (sp Spelling) DecodeBatch(data []byte, seriesLen, maxK, maxBatch int) (*BatchRequest, error) {
	req, err := decodeBody(sp, data, batchFields, seriesLen, maxBatch)
	if err != nil {
		return nil, err
	}
	if err := req.validate(seriesLen, maxK, maxBatch); err != nil {
		return nil, err
	}
	return req, nil
}

func (req *BatchRequest) validate(seriesLen, maxK, maxBatch int) error {
	if err := checkOptions(&req.K, req.Variant, req.MaxPartitions, req.TimeBudgetMS, maxK); err != nil {
		return err
	}
	if len(req.Queries) == 0 {
		return fmt.Errorf("queries is empty")
	}
	if len(req.Queries) > maxBatch {
		return fmt.Errorf("batch of %d queries exceeds the server limit %d", len(req.Queries), maxBatch)
	}
	for i, q := range req.Queries {
		if err := CheckQuery(q, seriesLen); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// DecodeAppendRequest is JSON.DecodeAppend. Pinned by bench/.
func DecodeAppendRequest(data []byte, seriesLen, maxAppend int) (*AppendRequest, error) {
	return JSON.DecodeAppend(data, seriesLen, maxAppend)
}

// DecodeAppend parses and validates a POST /append body: every series is
// finite with the indexed length, and 1 <= len(series) <= maxAppend.
func (sp Spelling) DecodeAppend(data []byte, seriesLen, maxAppend int) (*AppendRequest, error) {
	req, err := decodeBody(sp, data, appendFields, seriesLen, maxAppend)
	if err != nil {
		return nil, err
	}
	if err := req.validate(seriesLen, maxAppend); err != nil {
		return nil, err
	}
	return req, nil
}

func (req *AppendRequest) validate(seriesLen, maxAppend int) error {
	if len(req.Series) == 0 {
		return fmt.Errorf("series is empty")
	}
	if len(req.Series) > maxAppend {
		return fmt.Errorf("append of %d series exceeds the server limit %d", len(req.Series), maxAppend)
	}
	for i, s := range req.Series {
		if err := CheckQuery(s, seriesLen); err != nil {
			return fmt.Errorf("series %d: %w", i, err)
		}
	}
	return nil
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
