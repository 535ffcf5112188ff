package trace

import "strconv"

// The field decoders of the native layout. Each takes a fast path for the
// forms trace.Writer emits and hands every other string to strconv, so a
// decoder accepts exactly what strconv accepts and returns the same bits.
// The reader calls them on views into its block buffer (see view), which
// is why none of them may keep its argument: strconv clones the string it
// puts into an error.

// pow10 holds the powers of ten a float64 represents exactly, the same
// table strconv's exact path divides by.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// parseNum is strconv.ParseFloat(s, 64). Its fast path takes
// [-]digits[.digits] with at most 15 significant digits and at most 22
// fractional digits, and returns float64(m) or float64(m)/10^k for the
// digit string m with k fractional digits. That is the exact path
// strconv itself takes for such a string (atof64exact: the mantissa fits
// in 52 bits, so float64(m) is exact, and 10^k is exact for k ≤ 22, so
// the one rounding is the division's), which makes the result
// bit-identical by construction, -0 included. Exponents, a leading '+',
// "5.", ".5", NaN, Inf, hex, underscores and longer mantissas go to
// strconv.
//
//hddlint:noalloc
func parseNum(s string) (float64, error) {
	i := 0
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		i++
	}
	var m uint64
	sig, frac := 0, 0
	digits := false
	dot := false
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if m != 0 || c != '0' {
				sig++
			}
			m = m*10 + uint64(c-'0')
			digits = true
			if dot {
				frac++
			}
		case c == '.' && !dot && digits:
			dot = true
			digits = false
		default:
			return strconv.ParseFloat(s, 64)
		}
	}
	if !digits || sig > 15 || frac > 22 {
		return strconv.ParseFloat(s, 64)
	}
	f := float64(m)
	if neg {
		f = -f
	}
	if frac > 0 {
		f /= pow10[frac]
	}
	return f, nil
}

// maxIntDigits is the longest digit string an int always holds.
const maxIntDigits = 9 * (strconv.IntSize / 32)

// parseInt is strconv.Atoi(s), with a fast path for [-]digits of at most
// maxIntDigits digits, which cannot overflow.
//
//hddlint:noalloc
func parseInt(s string) (int, error) {
	i := 0
	if len(s) > 0 && s[0] == '-' {
		i++
	}
	if i == len(s) || len(s)-i > maxIntDigits {
		return strconv.Atoi(s)
	}
	n := 0
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return strconv.Atoi(s)
		}
		n = n*10 + int(c-'0')
	}
	if s[0] == '-' {
		n = -n
	}
	return n, nil
}
