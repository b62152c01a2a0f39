package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// maxMantDigits is how many significant decimal digits a mantissa keeps:
// 10^19 fits in a uint64. Later digits only set the truncation flag.
const maxMantDigits = 19

// decimal is a number's significand as the scan builds it: the first
// maxMantDigits significant digits as an integer, and whether a nonzero digit
// was dropped after them.
type decimal struct {
	mant  uint64
	kept  int  // digits in mant, at most maxMantDigits
	trunc bool // a nonzero digit past maxMantDigits was dropped
}

// scan returns d extended by the digit run at buf[i:], and the index after
// the run. It works on a copy so the mantissa stays in registers.
func (d decimal) scan(buf []byte, i int) (decimal, int) {
	for ; i < len(buf); i++ {
		c := buf[i] - '0'
		if c > 9 {
			break
		}
		if d.kept < maxMantDigits {
			d.mant = d.mant*10 + uint64(c)
			d.kept++
		} else if c != 0 {
			d.trunc = true
		}
	}
	return d, i
}

// atof64 converts mant×10^exp10, negated when neg, in strconv.ParseFloat's
// order for a decimal input: the exact float path, then Eisel–Lemire, which
// must give the same result for mant and mant+1 when digits were dropped.
// (A truncated mantissa has 19 digits, past the exact path's 2^52.) ok is
// false when neither step decides; the caller then falls back to
// strconv.ParseFloat. Each step that decides returns the correctly rounded
// float64, so the result is ParseFloat's bit for bit.
func atof64(mant uint64, exp10 int, neg, trunc bool) (float64, bool) {
	if f, ok := atof64exact(mant, exp10, neg); ok {
		return f, true
	}
	f, ok := eiselLemire64(mant, exp10, neg)
	if !ok || !trunc {
		return f, ok
	}
	// The dropped digits put the exact value between mant and mant+1 (in
	// units of the last kept digit): one float64 must cover both.
	up, ok := eiselLemire64(mant+1, exp10, neg)
	return f, ok && up == f
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// atof64exact converts mant×10^exp10 with one correctly rounded float
// operation on exact operands, when there is one: mant below 2^52 and
// |exp10| at most 22.
func atof64exact(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant>>52 != 0 || exp10 < -22 || exp10 > 22 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	if exp10 < 0 {
		return f / float64pow10[-exp10], true
	}
	return f * float64pow10[exp10], true
}

// eiselLemire64 converts mant×10^exp10, mant nonzero, with the Eisel–Lemire
// algorithm (https://nigeltao.github.io/blog/2020/eisel-lemire.html) as
// strconv does: multiply the normalized mantissa by a 128-bit approximation
// of the power of ten and round the top 54 bits to 53. ok is false when the
// approximation cannot decide the rounding, or the result is subnormal,
// infinite or outside the table. (A zero mantissa takes the exact path.)
func eiselLemire64(mant uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	// 217706/2^16 ≈ log2(10): the binary exponent of 10^exp10, biased.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	pow := &powersOfTen[exp10-minPow10]
	hi, lo := bits.Mul64(mant, pow[1])
	// Low 9 bits all ones: the product of the power's high word alone may be
	// one short, so add in the product of its low word.
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yHi, yLo := bits.Mul64(mant, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	// An exact halfway product needs the whole decimal to break the tie.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}
	m += m & 1 // round half to even, then drop the 54th bit
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 0 (subnormal) and 0x7FF or more (infinite) are left to the
	// fallback; the unsigned wrap folds exp2 ≤ 0 into the same test.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// Inclusive bounds of powersOfTen: past them a nonzero mantissa of at most
// 19 digits is zero or infinite as a float64.
const (
	minPow10 = -348
	maxPow10 = 347
)

// powersOfTen holds 10^e for e in [minPow10, maxPow10] as a 128-bit
// mantissa {low word, high word} rounded down, with the high word's top bit
// set; eiselLemire64 derives the binary exponent from e. It equals strconv's
// own table entry for entry and is computed exactly once per process.
var powersOfTen = func() (t [maxPow10 - minPow10 + 1][2]uint64) {
	var buf [16]byte
	store := func(e int, v *big.Int) {
		v.FillBytes(buf[:])
		t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten := big.NewInt(10)
	pow := big.NewInt(1) // 10^e
	v := new(big.Int)
	for e := 0; e <= -minPow10; e++ {
		n := pow.BitLen()
		if e <= maxPow10 {
			if n > 128 {
				v.Rsh(pow, uint(n-128))
			} else {
				v.Lsh(pow, uint(128-n))
			}
			store(e, v)
		}
		if e > 0 {
			// 2^(127+n)/10^e lies in (2^127, 2^128): 10^e is in
			// (2^(n-1), 2^n), never a power of two.
			v.Lsh(big.NewInt(1), uint(127+n))
			store(-e, v.Quo(v, pow))
		}
		pow.Mul(pow, ten)
	}
	return t
}()
