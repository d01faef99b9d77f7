package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"climber"
)

// The binary frame: the second spelling of the query and append bodies,
// spoken on the router→shard hop (and by any client that wants to skip the
// text). Everything is little-endian; a frame is a 12-byte header and a
// payload whose length the header states and the decoder checks against the
// body it was handed before it reads anything else:
//
//	magic "CLMF" | version u8 | kind u8 | flags u16 | payload length u32
//
// Integers travel as i64, counts as u32 (each checked against the bytes that
// remain before anything is allocated for it), strings and embedded JSON
// documents as a u32 length plus bytes, and every reading as a float64 — the
// engine derives a query's PAA signature from the float64s the JSON decoder
// yields before it narrows to float32, so narrowing on the wire could flip a
// near-tie plan; a frame therefore decodes to the IDENTICAL request its JSON
// rendering decodes to. ARCHITECTURE.md ("Wire contract") has the
// per-kind field tables.

// FrameContentType is the Content-Type that marks a body as a frame.
const FrameContentType = "application/x-climber-frame"

const (
	frameMagic   = "CLMF"
	frameVersion = 1
	frameHeader  = 12

	// Header flags. A request uses flagExplain; a response uses
	// flagPartial and flagDocuments (the explain request's answer: the
	// explanation and the span tree ride along as the JSON documents the
	// JSON spelling carries, decoded only by whoever reads them).
	flagExplain   = 1 << 0
	flagPartial   = 1 << 0
	flagDocuments = 1 << 1

	resultBytes = 16 // one (id i64, dist f64) pair
)

// Frame kinds, one per body type.
const (
	kindSearchRequest = 1 + iota // POST /search and /search/prefix
	kindBatchRequest
	kindAppendRequest
	kindSearchResponse
	kindBatchResponse
	kindAppendResponse
)

// MaxReplyBytes bounds a shard's reply to the router: the largest frame a
// batch at both limits answers with, plus maxBody of room for the embedded
// trace documents of an explain request and for every other (JSON) reply.
func MaxReplyBytes(maxK, maxBatch int, maxBody int64) int64 {
	return int64(maxK)*int64(maxBatch)*resultBytes + maxBody
}

// frameKind names the kind of frame that spells v. A type without one is a
// programming error and panics.
func frameKind(v any) byte {
	switch v.(type) {
	case *SearchRequest:
		return kindSearchRequest
	case *BatchRequest:
		return kindBatchRequest
	case *AppendRequest:
		return kindAppendRequest
	case *SearchResponse:
		return kindSearchResponse
	case *BatchResponse:
		return kindBatchResponse
	case *AppendResponse:
		return kindAppendResponse
	}
	panic(fmt.Sprintf("api: no frame spelling for %T", v))
}

// AppendFrame appends the frame spelling of v — a *SearchRequest,
// *BatchRequest, *AppendRequest, *SearchResponse, *BatchResponse or
// *AppendResponse — to dst.
func AppendFrame(dst []byte, v any) []byte {
	start := len(dst)
	dst = slices.Grow(dst, 64)
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, frameKind(v), 0, 0, 0, 0, 0, 0)
	var flags uint16
	switch v := v.(type) {
	case *SearchRequest:
		flags = flagIf(v.Explain, flagExplain)
		dst = appendOptions(dst, v.K, v.MaxPartitions, v.TimeBudgetMS, v.Variant)
		dst = appendFloats(dst, v.Query)
	case *BatchRequest:
		flags = flagIf(v.Explain, flagExplain)
		dst = appendOptions(dst, v.K, v.MaxPartitions, v.TimeBudgetMS, v.Variant)
		dst = appendMatrix(dst, v.Queries)
	case *AppendRequest:
		dst = appendMatrix(dst, v.Series)
	case *SearchResponse:
		documents := v.Explain != nil || v.Trace != nil
		flags = flagIf(v.Partial, flagPartial) | flagIf(documents, flagDocuments)
		dst = appendI64(dst, v.StepsExecuted)
		dst = appendResults(dst, v.Results)
		dst = appendStats(dst, &v.Stats)
		if documents {
			dst = appendDocument(dst, v.Explain)
			dst = appendDocument(dst, v.Trace)
		}
	case *BatchResponse:
		flags = flagIf(v.Partial, flagPartial) | flagIf(v.Trace != nil, flagDocuments)
		dst = appendI64(dst, v.StepsExecuted)
		dst = appendU32(dst, len(v.Results))
		for _, rs := range v.Results {
			dst = appendResults(dst, rs)
		}
		if v.Trace != nil {
			dst = appendDocument(dst, v.Trace)
		}
	case *AppendResponse:
		dst = appendU32(dst, len(v.IDs))
		for _, id := range v.IDs {
			dst = appendI64(dst, id)
		}
	}
	binary.LittleEndian.PutUint16(dst[start+6:], flags)
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(len(dst)-start-frameHeader))
	return dst
}

func flagIf(set bool, flag uint16) uint16 {
	if set {
		return flag
	}
	return 0
}

func appendU32(dst []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

func appendI64[T int | int64](dst []byte, v T) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
}

func appendBytes[T string | []byte](dst []byte, s T) []byte {
	return append(appendU32(dst, len(s)), s...)
}

func appendOptions(dst []byte, k, maxPartitions, timeBudgetMS int, variant string) []byte {
	dst = appendI64(dst, k)
	dst = appendI64(dst, maxPartitions)
	dst = appendI64(dst, timeBudgetMS)
	return appendBytes(dst, variant)
}

func appendFloats(dst []byte, x []float64) []byte {
	dst = slices.Grow(dst, 4+8*len(x))
	dst = appendU32(dst, len(x))
	for _, v := range x {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func appendMatrix(dst []byte, rows [][]float64) []byte {
	dst = appendU32(dst, len(rows))
	for _, row := range rows {
		dst = appendFloats(dst, row)
	}
	return dst
}

func appendResults(dst []byte, rs []Result) []byte {
	dst = slices.Grow(dst, 4+resultBytes*len(rs))
	dst = appendU32(dst, len(rs))
	for _, r := range rs {
		dst = appendI64(dst, r.ID)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Dist))
	}
	return dst
}

// appendStats and frameReader.stats spell climber.Stats field by field, in
// declaration order; TestFrameCarriesEveryStatsField fails when the struct
// gains a field these two do not carry.
func appendStats(dst []byte, s *climber.Stats) []byte {
	for _, v := range [...]int64{
		int64(s.GroupsConsidered), int64(s.TargetNodeSize), int64(s.TargetPathLen),
		int64(s.PartitionsScanned), int64(s.RecordsScanned), s.BytesLoaded, int64(s.DeltaScanned),
		int64(s.PartitionCacheHits), int64(s.PartitionCacheMisses), int64(s.StepsPlanned), int64(s.StepsExecuted),
	} {
		dst = appendI64(dst, v)
	}
	var partial byte
	if s.Partial {
		partial = 1
	}
	dst = append(dst, partial)
	return appendBytes(dst, s.BudgetExhausted)
}

// appendDocument embeds v as a JSON document. The explanation and span
// tree hold only integers, strings and booleans, so Marshal cannot fail.
func appendDocument(dst []byte, v any) []byte {
	doc, _ := json.Marshal(v)
	return appendBytes(dst, doc)
}

// DecodeFrame decodes one frame into v, which names the kind expected (the
// same pointer types AppendFrame takes). It checks magic, version, kind and
// that the header's length is exactly the payload handed in; every count
// inside is checked against the bytes left before memory is sized from it.
// Nothing in v aliases data afterwards. Like DecodeJSON it does not apply
// the request limits — the Spelling decoders do, to both spellings alike.
func DecodeFrame(data []byte, v any) error {
	if len(data) < frameHeader {
		return fmt.Errorf("frame: %d bytes cannot hold the %d-byte header", len(data), frameHeader)
	}
	if string(data[:4]) != frameMagic {
		return errors.New("frame: missing magic")
	}
	if data[4] != frameVersion {
		return fmt.Errorf("frame: unsupported version %d (this build speaks %d)", data[4], frameVersion)
	}
	if want := frameKind(v); data[5] != want {
		return fmt.Errorf("frame: kind %d where kind %d belongs", data[5], want)
	}
	flags := binary.LittleEndian.Uint16(data[6:])
	if n := binary.LittleEndian.Uint32(data[8:]); int64(n) != int64(len(data)-frameHeader) {
		return fmt.Errorf("frame: header states a payload of %d bytes, body carries %d", n, len(data)-frameHeader)
	}
	r := frameReader{data: data[frameHeader:]}
	switch v := v.(type) {
	case *SearchRequest:
		*v = SearchRequest{Explain: flags&flagExplain != 0}
		v.K, v.MaxPartitions, v.TimeBudgetMS, v.Variant = r.options()
		v.Query = r.floats()
	case *BatchRequest:
		*v = BatchRequest{Explain: flags&flagExplain != 0}
		v.K, v.MaxPartitions, v.TimeBudgetMS, v.Variant = r.options()
		v.Queries = r.matrix()
	case *AppendRequest:
		*v = AppendRequest{Series: r.matrix()}
	case *SearchResponse:
		*v = SearchResponse{Partial: flags&flagPartial != 0}
		v.StepsExecuted = r.i64()
		v.Results = r.results()
		r.stats(&v.Stats)
		if flags&flagDocuments != 0 {
			r.document(&v.Explain)
			r.document(&v.Trace)
		}
	case *BatchResponse:
		*v = BatchResponse{Partial: flags&flagPartial != 0}
		v.StepsExecuted = r.i64()
		if n := r.count(4); n > 0 {
			v.Results = make([][]Result, n)
			for i := range v.Results {
				v.Results[i] = r.results()
			}
		}
		if flags&flagDocuments != 0 {
			r.document(&v.Trace)
		}
	case *AppendResponse:
		*v = AppendResponse{}
		if n := r.count(8); n > 0 {
			v.IDs = make([]int, n)
			for i := range v.IDs {
				v.IDs[i] = r.i64()
			}
		}
	}
	switch {
	case r.err != nil:
		return r.err
	case len(r.data) != 0:
		return fmt.Errorf("frame: %d bytes after the last field", len(r.data))
	}
	return nil
}

// frameReader consumes a payload front to back. The first short read sets
// err and every later read yields zero values, so decoders read straight
// through and check once.
type frameReader struct {
	data []byte
	err  error
}

var errFrameTruncated = errors.New("frame: payload ends inside a field")

// take returns the next n bytes, or nil once the payload has run out.
func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data) {
		r.err = errFrameTruncated
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *frameReader) i64() int {
	b := r.take(8)
	if b == nil {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(b))
	if int64(int(v)) != v {
		r.err = fmt.Errorf("frame: integer %d overflows this platform's int", v)
	}
	return int(v)
}

// count reads a u32 element count and refuses one the remaining bytes
// cannot hold at elemSize bytes apiece, so no allocation is ever sized
// from an unchecked field.
func (r *frameReader) count(elemSize int) int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > len(r.data)/elemSize {
		r.err = errFrameTruncated
		return 0
	}
	return n
}

func (r *frameReader) bytes() []byte { return r.take(r.count(1)) }

func (r *frameReader) options() (k, maxPartitions, timeBudgetMS int, variant string) {
	return r.i64(), r.i64(), r.i64(), string(r.bytes())
}

// floats reads one counted float64 vector; an empty one decodes as nil.
func (r *frameReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	b := r.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (r *frameReader) matrix() [][]float64 {
	n := r.count(4) // every row costs at least its own count
	if n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = r.floats()
	}
	return out
}

func (r *frameReader) results() []Result {
	n := r.count(resultBytes)
	if n == 0 {
		return nil
	}
	b := r.take(resultBytes * n)
	out := make([]Result, n)
	for i := range out {
		out[i].ID = int(int64(binary.LittleEndian.Uint64(b[resultBytes*i:])))
		out[i].Dist = math.Float64frombits(binary.LittleEndian.Uint64(b[resultBytes*i+8:]))
	}
	return out
}

func (r *frameReader) stats(s *climber.Stats) {
	for _, p := range [...]*int{
		&s.GroupsConsidered, &s.TargetNodeSize, &s.TargetPathLen, &s.PartitionsScanned, &s.RecordsScanned,
	} {
		*p = r.i64()
	}
	s.BytesLoaded = int64(r.i64())
	for _, p := range [...]*int{
		&s.DeltaScanned, &s.PartitionCacheHits, &s.PartitionCacheMisses, &s.StepsPlanned, &s.StepsExecuted,
	} {
		*p = r.i64()
	}
	if b := r.take(1); b != nil {
		s.Partial = b[0] != 0
	}
	s.BudgetExhausted = string(r.bytes())
}

// document decodes one embedded JSON document into v.
func (r *frameReader) document(v any) {
	doc := r.bytes()
	if r.err != nil {
		return
	}
	if err := json.Unmarshal(doc, v); err != nil {
		r.err = fmt.Errorf("frame: embedded document: %w", err)
	}
}
