package api

import "strconv"

// The single-pass request decoder. It reads the canonical spelling of the
// three request grammars — one object, known lower-case keys, each at most
// once, plain ASCII strings, no null — straight into the request struct
// with no reflection and no intermediate tokens, and DECLINES (returns
// false) on anything else: an unknown or oddly-cased key, a duplicate, an
// escape, an empty array, a syntax error, an out-of-range number. A
// declined body is decoded again by encoding/json (DecodeJSON), which stays
// the specification of the dialect and the source of every error text; the
// fast path only ever has to agree with it on the bodies it accepts, and
// FuzzDecodeDifferential holds it to that. Each number is converted in the
// same pass that checks its grammar (Clinger's exact path, else
// Eisel-Lemire; float.go), exactly, so every accepted value is
// bit-identical to what encoding/json's strconv.ParseFloat(…, 64) returns;
// a literal that conversion cannot prove goes to strconv.ParseFloat itself.

// requestFields names the destinations of one request grammar; a nil
// pointer marks a key the grammar does not have.
type requestFields struct {
	vector        *[]float64   // "query"
	matrix        *[][]float64 // "queries" or "series", per matrixKey
	matrixKey     string
	k             *int
	variant       *string
	maxPartitions *int
	timeBudgetMS  *int
	explain       *bool
}

func searchFields(req *SearchRequest) requestFields {
	return requestFields{
		vector: &req.Query, k: &req.K, variant: &req.Variant,
		maxPartitions: &req.MaxPartitions, timeBudgetMS: &req.TimeBudgetMS, explain: &req.Explain,
	}
}

func batchFields(req *BatchRequest) requestFields {
	return requestFields{
		matrix: &req.Queries, matrixKey: "queries", k: &req.K, variant: &req.Variant,
		maxPartitions: &req.MaxPartitions, timeBudgetMS: &req.TimeBudgetMS, explain: &req.Explain,
	}
}

func appendFields(req *AppendRequest) requestFields {
	return requestFields{matrix: &req.Series, matrixKey: "series"}
}

// fastDecode parses data as one request object into f's destinations.
// sizeHint (the indexed series length) pre-sizes each number array, and a
// matrix of more than maxRows rows declines, so what a body can make the
// decoder allocate beyond its own size is bounded by the server's limits.
// It reports false when it declines; the destinations may then hold
// partial values.
func fastDecode(data []byte, f requestFields, sizeHint, maxRows int) bool {
	s := scanner{data: data}
	if !s.consume('{') {
		return false
	}
	var seen uint // one bit per key
	for first := true; ; first = false {
		if s.consume('}') {
			break
		}
		if !first && !s.consume(',') {
			return false
		}
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		var bit uint
		switch {
		case f.vector != nil && string(key) == "query":
			bit = 1 << 0
			*f.vector, ok = s.floats(sizeHint)
		case f.matrix != nil && string(key) == f.matrixKey:
			bit = 1 << 1
			*f.matrix, ok = s.matrix(sizeHint, maxRows)
		case f.k != nil && string(key) == "k":
			bit = 1 << 2
			*f.k, ok = s.integer()
		case f.variant != nil && string(key) == "variant":
			bit = 1 << 3
			var v []byte
			v, ok = s.str()
			*f.variant = string(v)
		case f.maxPartitions != nil && string(key) == "max_partitions":
			bit = 1 << 4
			*f.maxPartitions, ok = s.integer()
		case f.timeBudgetMS != nil && string(key) == "time_budget_ms":
			bit = 1 << 5
			*f.timeBudgetMS, ok = s.integer()
		case f.explain != nil && string(key) == "explain":
			bit = 1 << 6
			*f.explain, ok = s.boolean()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return s.atEnd()
}

// scanner is the decoder's cursor over the body.
type scanner struct {
	data []byte
	pos  int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// atEnd reports whether only whitespace is left.
func (s *scanner) atEnd() bool {
	s.space()
	return s.pos == len(s.data)
}

// consume skips whitespace and, when the next byte is c, steps over it.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes and returns its
// bytes (a view of the body). Anything encoding/json would have to unquote
// or repair — a backslash, a control byte, a non-ASCII byte — declines.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// boolean reads true or false; what follows is checked by the caller's
// next consume.
func (s *scanner) boolean() (bool, bool) {
	s.space()
	rest := s.data[s.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false, true
	}
	return false, false
}

// intPart steps over the JSON integer grammar -?(0|[1-9][0-9]*) and returns
// its digits as a number (wrapping past 19 of them), how many there are, 0
// when the text is not an integer part, and the sign.
func (s *scanner) intPart() (man uint64, n int, neg bool) {
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		neg = true
		s.pos++
	}
	first := s.pos
	s.pos, man = digitRun(s.data, s.pos, 0)
	if n = s.pos - first; n > 1 && s.data[first] == '0' {
		return 0, 0, neg // leading zero
	}
	return man, n, neg
}

// integer reads a JSON number that is a plain integer of at most 18 digits
// (always inside int64, whatever the sign). A fraction or exponent fails the
// caller's next consume, and longer literals decline: all are left to
// encoding/json, which refuses or range-checks them.
func (s *scanner) integer() (int, bool) {
	s.space()
	man, n, neg := s.intPart()
	if n == 0 || n > 18 {
		return 0, false
	}
	v := int64(man)
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// number reads one JSON number — checking the JSON grammar itself, which is
// narrower than what strconv accepts (no hex, no underscores, no "inf", no
// leading '+' or '.') — and converts the digits that same pass collected
// (decimal.float) to the float64 strconv.ParseFloat(…, 64), the call
// encoding/json makes, would return. Only a literal the conversion declines
// is handed to strconv itself. A value out of float64's range declines.
func (s *scanner) number() (float64, bool) {
	start := s.pos
	d, ok := s.decimal()
	if !ok {
		return 0, false
	}
	if v, ok := d.float(); ok {
		return v, true
	}
	// The conversion does not escape and literals are short, so the string
	// is built on the stack.
	v, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	return v, err == nil
}

// decimal steps over -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and
// returns its significand and power of ten, or false when the text there is
// not a JSON number. Past 19 significant digits man wraps; digits says so.
func (s *scanner) decimal() (decimal, bool) {
	var d decimal
	if d.man, d.digits, d.neg = s.intPart(); d.digits == 0 {
		return d, false
	}
	if d.digits == 1 && d.man == 0 {
		d.digits = 0 // the integer part "0" holds no significant digit
	}
	data, i := s.data, s.pos
	if i < len(data) && data[i] == '.' {
		i++
		frac := i
		if d.digits == 0 { // nor do the fraction's leading zeros
			for i < len(data) && data[i] == '0' {
				i++
			}
		}
		sig := i
		i, d.man = digitRun(data, i, d.man)
		if i == frac {
			return d, false
		}
		d.digits += i - sig
		d.exp = frac - i
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		neg := i < len(data) && data[i] == '-'
		if i < len(data) && (neg || data[i] == '+') {
			i++
		}
		first, e := i, 0
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			if e < 10000 { // saturates where strconv's does
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == first {
			return d, false
		}
		if neg {
			e = -e
		}
		d.exp += e
	}
	s.pos = i
	return d, true
}

// digitRun folds the run of decimal digits at data[i:] into man and returns
// the index past the run.
func digitRun(data []byte, i int, man uint64) (int, uint64) {
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		man = man*10 + uint64(data[i]-'0')
	}
	return i, man
}

// floats reads a non-empty array of numbers into a fresh slice.
func (s *scanner) floats(sizeHint int) ([]float64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := make([]float64, 0, sizeHint)
	for {
		s.space()
		v, ok := s.number()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.consume(',') {
			continue
		}
		return out, s.consume(']')
	}
}

// matrix reads a non-empty array of at most maxRows non-empty number arrays.
func (s *scanner) matrix(sizeHint, maxRows int) ([][]float64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	var out [][]float64
	for {
		row, ok := s.floats(sizeHint)
		if !ok || len(out) == maxRows {
			return nil, false
		}
		out = append(out, row)
		if s.consume(',') {
			continue
		}
		return out, s.consume(']')
	}
}
