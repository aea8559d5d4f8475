package tile

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Exact float text for the JSON wire format. Both kernels are exact and
// both read one table: appendFloat writes the shortest decimal that rounds
// back to the value (Giulietti's Schubfach, 2020, the algorithm behind
// JDK 19's Double.toString), and readFloat parses a JSON number with
// Clinger's fast path or Eisel–Lemire (as strconv does). Whatever either
// cannot settle exactly goes to strconv.

// pow10[q-pow10Min] is the 128-bit mantissa of 10^q, rounded down, with its
// top bit set: strconv's Eisel–Lemire table. Schubfach's 126-bit constant
// for 10^q is (pow10[q-pow10Min] >> 2) + 1.
var pow10 [pow10Max - pow10Min + 1]struct{ hi, lo uint64 }

const pow10Min, pow10Max = -348, 347

// exact10[i] is 10^i, exact in a float64 for i ≤ 22 (Clinger's fast path).
var exact10 [23]float64

// digitPairs holds "00" to "99", for writing digits two at a time.
var digitPairs [200]byte

func init() {
	one, ten := big.NewInt(1), big.NewInt(10)
	p, m := big.NewInt(1), new(big.Int) // p = 10^|q|
	for q := 0; q <= -pow10Min; q++ {
		if q <= pow10Max { // the top 128 bits of 10^q
			if n := p.BitLen(); n >= 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			setPow10(q, m)
		}
		if q > 0 { // 2^(127+n) / 10^q lies in (2^127, 2^128)
			m.Lsh(one, uint(127+p.BitLen()))
			setPow10(-q, m.Quo(m, p))
		}
		p.Mul(p, ten)
	}
	exact10[0] = 1
	for i := 1; i < len(exact10); i++ {
		exact10[i] = exact10[i-1] * 10
	}
	for i := range 100 {
		digitPairs[2*i], digitPairs[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
}

func setPow10(q int, m *big.Int) {
	e := &pow10[q-pow10Min]
	e.lo = m.Uint64()
	e.hi = new(big.Int).Rsh(m, 64).Uint64()
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form inside [1e-6, 1e21) and 'e' form
// outside it, with no leading zero in the exponent. v must be finite.
func appendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	if u>>63 != 0 {
		b = append(b, '-')
		u &^= 1 << 63
	}
	switch {
	case u == 0:
		return append(b, '0')
	case u < 3:
		// Schubfach's rule for the two smallest subnormals (C_TINY) picks
		// 4.9e-324 where strconv's shortest is 5e-324.
		return strconv.AppendFloat(b, math.Float64frombits(u), 'e', -1, 64)
	}
	var d [17]byte // the decimal, zero-padded to 17 digits
	m, e := schubfach(u)
	put8(d[9:], uint32(m%1e8))
	m /= 1e8
	put8(d[1:], uint32(m%1e8))
	d[0] = byte('0' + m/1e8)
	first, last := 0, len(d)-1
	for d[first] == '0' {
		first++
	}
	for d[last] == '0' {
		last--
	}
	digits := d[first : last+1]
	x := len(d) - first + e - 1 // v = d.ddd × 10^x
	if x < -6 || x >= 21 {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(append(b, '.'), digits[1:]...)
		}
		b = append(b, 'e', '+')
		if x < 0 {
			b[len(b)-1], x = '-', -x
		}
		return strconv.AppendInt(b, int64(x), 10)
	}
	switch dp := x + 1; {
	case dp <= 0:
		b = append(b, "0.000000"[:2-dp]...)
		return append(b, digits...)
	case dp < len(digits):
		b = append(append(b, digits[:dp]...), '.')
		return append(b, digits[dp:]...)
	default:
		b = append(b, digits...)
		for range dp - len(digits) {
			b = append(b, '0')
		}
		return b
	}
}

// put8 writes v < 1e8 as eight digits, two at a time.
func put8(d []byte, v uint32) {
	_ = d[7]
	hi, lo := v/10000, v%10000
	for i, p := range [4]uint32{hi / 100, hi % 100, lo / 100, lo % 100} {
		d[2*i], d[2*i+1] = digitPairs[2*p], digitPairs[2*p+1]
	}
}

// schubfach returns the shortest decimal m × 10^e (m < 10^17) that rounds
// to the positive float64 with bits u, the closest one when two are
// shortest, the even one on a tie. u must not be 0, 1 or 2.
func schubfach(u uint64) (m uint64, e int) {
	const qMin, cMin = -1074, 1 << 52
	c, q := u&(cMin-1), int(u>>52)-1075
	if q == -1075 { // subnormal
		q = qMin
	} else {
		c |= cMin
		// An integer below 2^53 is its own shortest decimal.
		if mq := -q; 0 < mq && mq < 53 && c>>mq<<mq == c {
			return c >> mq, 0
		}
	}
	// Figure 7 of the paper, computed as in its figure 9: v = c·2^q, its
	// rounding interval is (vbl, vbr)/4 in units of 10^k, and vb/4 is v.
	out := c & 1
	cb := c << 2
	cbr, cbl, k := cb+2, cb-2, q*661971961083>>41 // k = ⌊log10 2^q⌋
	if c == cMin && q != qMin {
		// The interval below v is half as wide; k = ⌊log10 ¾·2^q⌋.
		cbl, k = cb-1, (q*661971961083-274743187321)>>41
	}
	h := q + (-k*913124641741)>>38 + 2 // q + ⌊log2 10^-k⌋ + 2
	p := pow10[-k-pow10Min]
	lo, c0 := bits.Add64(p.lo>>2|p.hi<<62, 1, 0)
	g1, g0 := (p.hi>>2+c0)<<1|lo>>63, lo&(1<<63-1) // g = g1·2^63 + g0
	vb, vbl, vbr := roundOdd(g1, g0, cb<<h), roundOdd(g1, g0, cbl<<h), roundOdd(g1, g0, cbr<<h)
	s := vb >> 2
	// One digit fewer: at most one multiple of 10·10^k lies in the interval.
	// (The JDK tries this only for s ≥ 100, to print at least two digits.)
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin, wpin := vbl+out <= sp10<<2, tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	uin, win := vbl+out <= s<<2, t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both s and t are in: the closer to v, the even one on a tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundOdd is the paper's rop: cp·g·2^-127, rounded to odd.
func roundOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return (y1 + z>>63) | (z&(1<<63-1)+(1<<63-1))>>63
}

// readFloat reads the JSON number at the head of b and returns its value
// and length. ok is false when the head is not a JSON number, has more than
// 19 significant digits, or is one neither fast path settles exactly; the
// caller then asks strconv.
func readFloat(b []byte) (v float64, n int, ok bool) {
	i, neg := 0, len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // significant digits in man; v = man·10^exp
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'0' < 10:
		i, man, nd = readDigits(b, i, man, nd)
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		i = start
		if man == 0 { // zeros before the first significant digit
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		if i, man, nd = readDigits(b, i, man, nd); i == start {
			return 0, 0, false
		}
		exp -= i - start
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	switch {
	case nd > 19:
		return 0, 0, false
	case man == 0:
		v = 0
	case man < 1<<53 && -22 <= exp && exp <= 22:
		if v = float64(man); exp < 0 {
			v /= exact10[-exp]
		} else {
			v *= exact10[exp]
		}
	default:
		if v, ok = eiselLemire(man, exp); !ok {
			return 0, 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// readDigits adds the digits at b[i:] to man, eight at a time while they
// fit in 19, and returns where they end, the new man and the digit count.
func readDigits(b []byte, i int, man uint64, nd int) (int, uint64, int) {
	for ; nd+8 <= 19 && i+8 <= len(b); i, nd = i+8, nd+8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if w&0xF0F0F0F0F0F0F0F0|(w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		man = man*1e8 + uint64(parse8(w))
	}
	for ; i < len(b) && b[i]-'0' < 10; i, nd = i+1, nd+1 {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man, nd
}

// parse8 converts eight ASCII digits, loaded little-endian, to their value.
func parse8(w uint64) uint32 {
	w -= 0x3030303030303030
	w = w*10 + w>>8
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return uint32(w)
}

// eiselLemire returns man·10^exp10 for man > 0 when the 128-bit product
// decides its rounding and the result is a normal float64.
func eiselLemire(man uint64, exp10 int) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	p := pow10[exp10-pow10Min]
	clz := bits.LeadingZeros64(man)
	man <<= clz
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)
	xHi, xLo := bits.Mul64(man, p.hi)
	if xHi&0x1FF == 0x1FF && xLo+man < man { // widen to 192 bits
		yHi, yLo := bits.Mul64(man, p.lo)
		mergedLo, carry := bits.Add64(xLo, yHi, 0)
		mergedHi := xHi + carry
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 { // half-way
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal, infinite or NaN
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}
