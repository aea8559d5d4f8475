package tile

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// appendJSONFloat renders v exactly as encoding/json does: shortest
// round-trip form, switching to 'e' notation outside [1e-6, 1e21) and
// stripping the leading zero encoding/json strips from two-digit negative
// exponents ("e-09" → "e-9"). It is the oracle appendFloat is held to.
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// checkNumber holds both kernels to strconv on a finite v: appendFloat must
// write appendJSONFloat's bytes, those bytes must read back as v, and
// readFloat must agree with strconv.ParseFloat on v's 19-digit rendering.
func checkNumber(v float64) error {
	var want, got, long [32]byte
	text := appendJSONFloat(want[:0], v)
	if w := appendFloat(got[:0], v); !bytes.Equal(w, text) {
		return fmt.Errorf("%#x: wrote %s, strconv writes %s", math.Float64bits(v), w, text)
	}
	back, n, ok := readFloat(text)
	if !ok || n != len(text) {
		back, _ = strconv.ParseFloat(string(text), 64) // what floats falls back to
	}
	if math.Float64bits(back) != math.Float64bits(v) {
		return fmt.Errorf("%#x: %s read back as %#x", math.Float64bits(v), text, math.Float64bits(back))
	}
	return checkRead(strconv.AppendFloat(long[:0], v, 'e', 18, 64))
}

// checkRead: whenever readFloat accepts all of text, strconv.ParseFloat and
// jsonNumber accept it too, with the same bits.
func checkRead(text []byte) error {
	got, n, ok := readFloat(text)
	if !ok || n != len(text) {
		return nil
	}
	want, err := strconv.ParseFloat(string(text), 64)
	if err != nil || !jsonNumber(text) {
		return fmt.Errorf("read %q as %v, which strconv or the JSON grammar rejects: %v", text, got, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("read %q as %#x, strconv reads %#x", text, math.Float64bits(got), math.Float64bits(want))
	}
	return nil
}

// TestPow10Table spot-checks the generated table against rows of the one
// strconv publishes for Eisel–Lemire.
func TestPow10Table(t *testing.T) {
	for _, row := range []struct {
		q      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-324, 0xCF42894A5DCE35EA, 0x52064CAC828675B9},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{22, 0x878678326EAC9000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10[row.q-pow10Min]; got.hi != row.hi || got.lo != row.lo {
			t.Errorf("1e%d: {%#x, %#x}, want {%#x, %#x}", row.q, got.hi, got.lo, row.hi, row.lo)
		}
	}
}

// FuzzJSONNumber holds the number kernels to strconv. Run continuously with:
//
//	go test ./internal/tile -run '^$' -fuzz '^FuzzJSONNumber$' -fuzztime 10s
//
// Properties checked: for arbitrary float64 bits, appendFloat writes
// encoding/json's bytes and reading them back gives the same bits; for
// arbitrary bytes, whatever readFloat accepts whole, strconv.ParseFloat and
// jsonNumber accept with the same bits.
func FuzzJSONNumber(f *testing.F) {
	for _, s := range []string{"0", "-0", "0.1", "1e23", "-1e-7", "5e-324", "2.2250738585072014e-308",
		"1.7976931348623157e+308", "9007199254740993", "0.000001", "1e21", "1E+2", "0.00012345678901234567",
		"123456789012345678901", "01", "+1", ".5", "1.", "1e", "-", "1e999", "0e99999", "1_0", "0x1p-2"} {
		v, _ := strconv.ParseFloat(s, 64)
		f.Add(math.Float64bits(v), []byte(s))
	}
	f.Fuzz(func(t *testing.T, u uint64, data []byte) {
		if v := math.Float64frombits(u); !math.IsNaN(v) && !math.IsInf(v, 0) {
			if err := checkNumber(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkRead(data); err != nil {
			t.Fatal(err)
		}
	})
}
