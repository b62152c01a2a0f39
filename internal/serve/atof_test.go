package serve

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestPowersOfTenTable pins generated entries of the Eisel–Lemire table to
// strconv's values, from both ends and the exact middle.
func TestPowersOfTenTable(t *testing.T) {
	for _, c := range []struct {
		exp10 int
		want  [2]uint64
	}{
		{-348, [2]uint64{0x1732C869CD60E453, 0xFA8FD5A0081C0288}},
		{-17, [2]uint64{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}},
		{0, [2]uint64{0, 0x8000000000000000}},
		{22, [2]uint64{0, 0x878678326EAC9000}},
		{347, [2]uint64{0x4B7195F2D2D1A9FB, 0xD13EB46469447567}},
	} {
		if got := powersOfTen[c.exp10-minPow10]; got != c.want {
			t.Errorf("1e%d = {%#016x, %#016x}, want {%#016x, %#016x}", c.exp10, got[0], got[1], c.want[0], c.want[1])
		}
	}
}

// TestAtof64Branches pins which step decides each kind of input: the exact
// path, Eisel–Lemire (confirmed by mant+1 when truncated), or neither, which
// leaves the input to strconv.ParseFloat.
func TestAtof64Branches(t *testing.T) {
	for _, c := range []struct {
		name         string
		mant         uint64
		exp10        int
		trunc        bool
		exact, el    bool // atof64exact and eiselLemire64 decide
		atof64Decide bool
	}{
		{"integer", 3, 0, false, true, true, true},
		// 2.5 is exact, but 10^-1 is not: the product sits a hair under it.
		{"exact decimal fraction", 25, -1, false, true, false, true},
		{"past the exact powers of ten", 1, 30, false, false, true, true},
		{"17 digits", 12345678901234567, -17, false, false, true, true},
		{"truncated, both bounds agree", 1234567890123456789, -18, true, false, true, true},
		// 1 + 2^-53 cut to 19 digits: mant rounds down, mant+1 up.
		{"truncated, bounds straddle a halfway point", 1000000000000000111, -18, true, false, true, false},
		{"exact halfway 2^53+1", 9007199254740993, 0, false, false, false, false},
		{"subnormal", 5, -324, false, false, false, false},
		{"above the table", 1, 400, false, false, false, false},
		{"overflow", 18, 307, false, false, false, false},
	} {
		_, exact := atof64exact(c.mant, c.exp10, false)
		_, el := eiselLemire64(c.mant, c.exp10, false)
		_, decide := atof64(c.mant, c.exp10, false, c.trunc)
		if exact != c.exact || el != c.el || decide != c.atof64Decide {
			t.Errorf("%s: exact %v, Eisel–Lemire %v, atof64 %v; want %v, %v, %v", c.name, exact, el, decide, c.exact, c.el, c.atof64Decide)
		}
	}
}

// numberChecker runs strings through the body parser's number scan and
// through strconv.ParseFloat, and fails on any difference in verdict or bits.
type numberChecker struct {
	t   *testing.T
	buf []byte
	n   int
}

func (c *numberChecker) check(s string) {
	c.n++
	c.buf = append(c.buf[:0], s...)
	p := traceParser{buf: c.buf}
	got, err := p.number()
	accepted := err == nil && p.pos == len(s)
	want, werr := strconv.ParseFloat(s, 64)
	if accepted != (werr == nil) {
		c.t.Fatalf("%q: accepted %v (err %v), strconv.ParseFloat err %v", s, accepted, err, werr)
	}
	if accepted && math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("%q: got %v (%#016x), strconv.ParseFloat %v (%#016x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestNumberMatchesParseFloat runs more than a million RFC 8259 numbers
// through the one-pass scan and strconv.ParseFloat: float64s in their
// shortest form, in 'e' form with 0–24 digits and in 'f' form with up to 30
// decimals (past 19 significant digits, so truncated), exact halfway points
// between adjacent float64s with and without digits after them, random digit
// strings, and the edge cases every float parser must get right.
func TestNumberMatchesParseFloat(t *testing.T) {
	c := &numberChecker{t: t}
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0", "0e0", "0e99999", "-0E-99999", "1", "-1",
		"9007199254740992", "9007199254740993", "9007199254740995", "18446744073709551615", "18446744073709551616",
		"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.225073858507201136057409796709131975934819546351645648e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
		"1e400", "-1e400", "1e-400", "-1e-400", "1e99999", "1e-99999", "1e0000000000000000000000001",
		"0.000000000000000000000000000000000000000000000000000000000000000000000000000000000001234",
		"0." + strings.Repeat("0", 400) + "1", "0." + strings.Repeat("0", 400) + "1e420",
		"1" + strings.Repeat("0", 400) + "e-400", "0.1", "0.2", "0.3", "1e23", "8.589973e9",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203125000000000001",
		"1.00000000000000033306690738754696212708950042724609375",
		"123456789012345678901234567890", "0.1000000000000000055511151231257827021181583404541015625",
	} {
		c.check(s)
	}

	rng := rand.New(rand.NewSource(1))
	randomFloat := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	// Magnitudes a 'f' string can carry with few integer digits.
	moderate := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(31)-15)) }
	for range 150_000 {
		c.check(strconv.FormatFloat(randomFloat(), 'g', -1, 64))
		c.check(strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64))
	}
	for range 250_000 {
		f := randomFloat()
		if rng.Intn(2) == 0 {
			f = moderate()
		}
		c.check(strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
	}
	for range 250_000 {
		c.check(strconv.FormatFloat(moderate(), 'f', rng.Intn(31), 64))
	}
	for range 20_000 {
		s := halfway(rng)
		c.check(s)
		c.check(s + strconv.Itoa(1+rng.Intn(9)))
	}
	for range 200_000 {
		c.check(randomNumber(rng))
	}
	if c.n < 1_000_000 {
		t.Fatalf("checked %d numbers, want at least a million", c.n)
	}
}

// halfway returns the exact decimal of a point halfway between two adjacent
// float64s in [2^-60, 2^80), always with a decimal point so more digits can
// follow.
func halfway(rng *rand.Rand) string {
	m := 1<<52 | rng.Uint64()&(1<<52-1) // 53-bit significand
	exp := rng.Intn(140) - 112          // (2m+1)·2^(exp-1) lies in [2^-60, 2^80)
	mid := new(big.Float).SetPrec(64).SetUint64(2*m + 1)
	mid.SetMantExp(mid, exp-1)
	// A power-of-two denominator 2^k needs exactly k decimals.
	s := mid.Text('f', max(0, 1-exp))
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}

// randomNumber draws a string from the RFC 8259 number grammar with long
// mantissas, runs of leading and trailing zeros and exponents up to the
// saturation limit and past it.
func randomNumber(rng *rand.Rand) string {
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	var b strings.Builder
	if rng.Intn(2) == 0 {
		b.WriteByte('-')
	}
	if rng.Intn(3) == 0 {
		b.WriteByte('0')
	} else {
		b.WriteByte(byte('1' + rng.Intn(9)))
		b.WriteString(digits(rng.Intn(25)))
	}
	if rng.Intn(3) > 0 {
		b.WriteByte('.')
		b.WriteString(strings.Repeat("0", rng.Intn(3)*rng.Intn(20)))
		b.WriteString(digits(1 + rng.Intn(30)))
		b.WriteString(strings.Repeat("0", rng.Intn(2)*rng.Intn(20)))
	}
	if rng.Intn(2) == 0 {
		b.WriteByte("eE"[rng.Intn(2)])
		if s := rng.Intn(3); s > 0 {
			b.WriteByte("+-"[s-1])
		}
		switch rng.Intn(4) {
		case 0:
			b.WriteString(strings.Repeat("0", rng.Intn(20)) + strconv.Itoa(rng.Intn(400)))
		case 1:
			b.WriteString(strconv.Itoa(rng.Intn(100000)))
		default:
			b.WriteString(strconv.Itoa(rng.Intn(40)))
		}
	}
	return b.String()
}
