package api

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkLiteral holds lit, a whole JSON number, to the contract: the
// decoder's own conversion declines or returns strconv.ParseFloat's exact
// bits, and number, fallback included, returns what strconv returns,
// declining where strconv reports a range error. It reports whether the
// own conversion accepted.
func checkLiteral(t testing.TB, lit string) bool {
	want, err := strconv.ParseFloat(lit, 64)
	s := scanner{data: []byte(lit)}
	d, scanned := s.decimal()
	if !scanned || s.pos != len(lit) {
		t.Fatalf("%q: not scanned as one JSON number", lit)
	}
	got, ok := d.float()
	if ok && (err != nil || math.Float64bits(got) != math.Float64bits(want)) {
		t.Fatalf("%q: converted to %v (%#x), strconv says %v (%#x), %v",
			lit, got, math.Float64bits(got), want, math.Float64bits(want), err)
	}
	s = scanner{data: []byte(lit)}
	v, numOK := s.number()
	if numOK != (err == nil) || numOK && math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("%q: number gives %v, %v; strconv %v, %v", lit, v, numOK, want, err)
	}
	return ok
}

// The literals where a converter goes wrong if it is going to: every power
// of ten in the table at the mantissas that bracket the exact-integer
// limit and fill 19 digits, halfway points, the ends of the range, signed
// zeros, and digit counts on either side of what a uint64 holds.
func TestConversionExact(t *testing.T) {
	accepted, total := 0, 0
	check := func(lit string) {
		total++
		if checkLiteral(t, lit) {
			accepted++
		}
	}
	for e := minExp10; e <= maxExp10; e++ {
		for _, m := range []string{"1", "9007199254740991", "9007199254740993", "9999999999999999999"} {
			check(m + "e" + strconv.Itoa(e))
			check("-" + m + "E" + strconv.Itoa(e))
		}
	}
	for _, lit := range []string{
		"9007199254740993", "9007199254740992", "9007199254740994", "9007199254740995",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
		"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
		"-0", "0", "-0.0", "0e5", "-0e-5", "0.000e999999", "1E+22", "1e22", "1e23", "-1e23", "1e-22", "1e-23",
		"8.988465674311579e307", "4.5e15", "123456789012345678e-5",
		"1234567890123456789", "12345678901234567890", "9999999999999999999", "18446744073709551615",
		"18446744073709551616", "1.234567890123456789", "1.2345678901234567891",
		"0.000000000000000000000000000001234567890123456789",
		"0.0000000000000000000000000000012345678901234567891",
		"0.00000000000000000000000000000000000000000000000000000000000000000000000001",
		"-0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000001e80",
		"100000000000000000000000", "1000000000000000000000000000000e-30", "1.00000000000000000000",
		"0." + strings.Repeat("0", 10000) + "1e10005", "0." + strings.Repeat("0", 10000) + "1e100000", // the second saturates the exponent
		"1e-400", "1e400", "-1e400", "1e-99999999999999999999", "1e99999999999999999999",
		"0.1", "0.2", "0.3", "3.141592653589793", "2.718281828459045", "-12.345678901234567",
	} {
		check(lit)
	}

	// Shortest round-trip spellings of random float64s: any bit pattern in
	// 'g' and 'e' form; in 'f' form, whose digits grow with the exponent,
	// magnitudes near the readings a series holds.
	rng := rand.New(rand.NewSource(11))
	const n = 1 << 20
	for i := 0; i < n; i++ {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		check(strconv.FormatFloat(x, 'g', -1, 64))
		check(strconv.FormatFloat(x, 'e', -1, 64))
		y := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
		check(strconv.FormatFloat(y, 'f', -1, 64))
	}
	t.Logf("own conversion accepted %d of %d", accepted, total)
	if accepted < total*9/10 {
		t.Errorf("the own conversion accepted %d of %d literals; the fallback is meant to be rare", accepted, total)
	}
}

// Three rows of the generated table, as strconv lists them.
func TestPowersOfTenRows(t *testing.T) {
	for _, c := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{0, 0x0000000000000000, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719}, // 1e43 = 0xE596B7B0_C643C719_6D9CCD05_D0000000 · 2^15
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
	} {
		if got := powersOfTen[c.exp10-minExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: {%#x, %#x}, want {%#x, %#x}", c.exp10, got[0], got[1], c.lo, c.hi)
		}
	}
}

// FuzzParseNumber holds the decoder's number pass to strconv.ParseFloat on
// arbitrary text: what it scans as a whole number is exactly a JSON number
// (json.Valid), and every such literal converts to strconv's bits or
// declines.
func FuzzParseNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "0e5", "1E+22", "1e23", "9007199254740993", "2.2250738585072011e-308", "4.9e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "12345678901234567890", "1234567890123456789",
		"0.000000000000000000000000000001234567890123456789", "18446744073709551616", "1e-400",
		"01", "1.", ".5", "+1", "1e", "1e+", "-", "0x10", "1_0", "Inf", "1.5e3x", " 1", `"00"`, "[1]", "true",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		s := scanner{data: []byte(lit)}
		_, ok := s.decimal()
		whole := ok && s.pos == len(lit)
		// Without whitespace around it, a JSON value is a number when it
		// starts like one.
		number := len(lit) > 0 && (lit[0] == '-' || lit[0]-'0' <= 9) && json.Valid([]byte(lit))
		if !strings.ContainsAny(lit, " \t\r\n") && number != whole {
			t.Fatalf("%q: scanned as a whole number = %v, JSON number = %v", lit, whole, number)
		}
		if whole {
			checkLiteral(t, lit)
		}
	})
}

// A canonical /append body, eight series of 256 readings, allocates what it
// did when strconv converted every number: the request, the row slice as it
// grows and the rows. One allocation per number would show as thousands.
func TestDecodeAppendAllocs(t *testing.T) {
	body := canonicalAppendBody(8, 256)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeAppendRequest(body, 256, 1024); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 13 {
		t.Errorf("canonical /append decode: %.0f allocations per request, ceiling 13", allocs)
	}
}
