package tuple

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// This file is the text-line decoder. One generic implementation serves
// both representations a line arrives in: a string (Parse, IsComment —
// file readers, relays) and a byte slice still inside a read buffer
// (ParseBytes — the hub's publisher ingest, which must not copy every
// line into a new string just to split it). The split follows the
// grammar in tuple.go step by step — trim, time up to the first space,
// trim, value up to the next space, trimmed name — with white space as
// strings.TrimSpace defines it, so both entry points accept and reject
// exactly the same lines.

// LineKind classifies one line of a text tuple stream.
type LineKind uint8

const (
	// LineTuple is a line that decodes to a tuple.
	LineTuple LineKind = iota
	// LineComment is a blank line or a '#' comment; readers skip it.
	LineComment
	// LineBad is any other line: Parse rejects it.
	LineBad
)

// text is the pair of representations a line is decoded from.
type text interface{ string | []byte }

// lineStatus is scan's verdict, fine-grained enough for Parse to build
// its error.
type lineStatus uint8

const (
	lineOK lineStatus = iota
	lineNoValue
	lineBadTime
	lineBadValue
)

// fields holds the bounds of a tuple line's time, value and name fields.
type fields struct {
	tLo, tHi int
	vLo, vHi int
	nLo, nHi int
}

// Parse decodes one tuple line. Both the two-field (time value) and
// three-field (time value name) forms are accepted. Signal names may
// contain spaces: everything after the second field is the name.
func Parse(line string) (Tuple, error) {
	lo, hi := trimSpace(line, 0, len(line))
	if lo == hi {
		return Tuple{}, fmt.Errorf("tuple: empty line")
	}
	ms, v, f, st := scan(line, lo, hi)
	switch st {
	case lineOK:
		return Tuple{Time: ms, Value: v, Name: line[f.nLo:f.nHi]}, nil
	case lineNoValue:
		return Tuple{}, fmt.Errorf("tuple: %q: missing value field", line)
	case lineBadTime:
		_, err := strconv.ParseInt(line[f.tLo:f.tHi], 10, 64)
		return Tuple{}, fmt.Errorf("tuple: %q: bad time: %w", line, err)
	default:
		_, err := strconv.ParseFloat(line[f.vLo:f.vHi], 64)
		return Tuple{}, fmt.Errorf("tuple: %q: bad value: %w", line, err)
	}
}

// IsComment reports whether a line is blank or a '#' comment, both of which
// readers skip.
func IsComment(line string) bool {
	lo, hi := trimSpace(line, 0, len(line))
	return lo == hi || line[lo] == '#'
}

// ParseBytes decodes one line held in a byte slice, as IsComment and then
// Parse would decode it as a string, without copying it. It reports
// whether the line is a tuple, a comment or bad; for a tuple it returns
// the time, the value and the name field as a subslice of line (empty in
// the two-field form). The caller resolves the name to a string — a
// lookup of the form m[string(name)] does not allocate — and must not
// keep the slice past the line buffer's lifetime.
//
//gscope:hotpath
func ParseBytes(line []byte) (ms int64, v float64, name []byte, kind LineKind) {
	lo, hi := trimSpace(line, 0, len(line))
	if lo == hi || line[lo] == '#' {
		return 0, 0, nil, LineComment
	}
	ms, v, f, st := scan(line, lo, hi)
	if st != lineOK {
		return 0, 0, nil, LineBad
	}
	return ms, v, line[f.nLo:f.nHi], LineTuple
}

// scan splits and decodes the non-blank trimmed line s[lo:hi].
//
//gscope:hotpath
func scan[T text](s T, lo, hi int) (ms int64, v float64, f fields, st lineStatus) {
	f.tLo, f.tHi = lo, indexSpace(s, lo, hi)
	if f.tHi == hi {
		return 0, 0, f, lineNoValue
	}
	rLo, rHi := trimSpace(s, f.tHi+1, hi)
	if rLo == rHi {
		return 0, 0, f, lineNoValue
	}
	f.vLo, f.vHi = rLo, indexSpace(s, rLo, rHi)
	f.nLo, f.nHi = rHi, rHi
	if f.vHi < rHi {
		f.nLo, f.nHi = trimSpace(s, f.vHi+1, rHi)
	}
	var ok bool
	if ms, ok = parseTime(s[f.tLo:f.tHi]); !ok {
		return 0, 0, f, lineBadTime
	}
	if v, ok = parseValue(s[f.vLo:f.vHi]); !ok {
		return 0, 0, f, lineBadValue
	}
	return ms, v, f, lineOK
}

// indexSpace returns the index of the first ' ' in s[lo:hi], or hi.
// Only the space byte separates fields; a tab stays inside its field.
//
//gscope:hotpath
func indexSpace[T text](s T, lo, hi int) int {
	for i := lo; i < hi; i++ {
		if s[i] == ' ' {
			return i
		}
	}
	return hi
}

// parseTime decodes the time field exactly as strconv.ParseInt(f, 10, 64)
// does. Up to 18 digits cannot overflow, so those are decoded in place;
// any other shape is left to strconv.
//
//gscope:hotpath
func parseTime[T text](f T) (int64, bool) {
	neg, i := sign(f)
	if x, ok := digits(f, i, 18); ok {
		if neg {
			return -int64(x), true
		}
		return int64(x), true
	}
	ms, err := strconv.ParseInt(string(f), 10, 64) //gscope:allow hotpath 19-digit stamps and malformed fields only; strconv copies its input into any error
	return ms, err == nil
}

// parseValue decodes the value field exactly as strconv.ParseFloat(f, 64)
// does. Integers of up to 15 digits are exact in a float64, so those —
// what probes and counters send — are decoded in place, sign and negative
// zero included; fractions, exponents, hex, inf and NaN are left to
// strconv.
//
//gscope:hotpath
func parseValue[T text](f T) (float64, bool) {
	neg, i := sign(f)
	if x, ok := digits(f, i, 15); ok {
		v := float64(x)
		if neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(f), 64) //gscope:allow hotpath non-integer values only; strconv copies its input into any error
	return v, err == nil
}

// sign reports a leading '-' and the index past an optional sign byte.
//
//gscope:hotpath
func sign[T text](f T) (neg bool, i int) {
	if len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		return f[0] == '-', 1
	}
	return false, 0
}

// digits decodes f[i:] when it is 1 to max decimal digits.
//
//gscope:hotpath
func digits[T text](f T, i, max int) (uint64, bool) {
	if n := len(f) - i; n < 1 || n > max {
		return 0, false
	}
	var x uint64
	for ; i < len(f); i++ {
		d := f[i] - '0'
		if d > 9 {
			return 0, false
		}
		x = x*10 + uint64(d)
	}
	return x, true
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// trimSpace returns the bounds of s[lo:hi] without leading and trailing
// white space, exactly as strings.TrimSpace trims s[lo:hi]: ASCII bytes
// are tested directly, and the first non-ASCII byte at either edge
// switches to rune decoding with unicode.IsSpace.
//
//gscope:hotpath
func trimSpace[T text](s T, lo, hi int) (int, int) {
	for ; lo < hi; lo++ {
		c := s[lo]
		if c >= utf8.RuneSelf {
			return trimRunes(s, lo, hi)
		}
		if !asciiSpace[c] {
			break
		}
	}
	for ; hi > lo; hi-- {
		c := s[hi-1]
		if c >= utf8.RuneSelf {
			return lo, trimRightRunes(s, lo, hi)
		}
		if !asciiSpace[c] {
			break
		}
	}
	return lo, hi
}

// trimRunes is strings.TrimFunc(s[lo:hi], unicode.IsSpace) in bounds.
//
//gscope:hotpath
func trimRunes[T text](s T, lo, hi int) (int, int) {
	for lo < hi {
		r, size := decodeRune(s, lo, hi)
		if !unicode.IsSpace(r) {
			break
		}
		lo += size
	}
	return lo, trimRightRunes(s, lo, hi)
}

// trimRightRunes is strings.TrimRightFunc(s[lo:hi], unicode.IsSpace) in
// bounds, returning the new end. Like TrimRightFunc it re-decodes the
// last kept rune forward to find where it ends.
//
//gscope:hotpath
func trimRightRunes[T text](s T, lo, hi int) int {
	i := hi
	for i > lo {
		r, size := decodeLastRune(s, lo, i)
		i -= size
		if !unicode.IsSpace(r) {
			if s[i] < utf8.RuneSelf {
				return i + 1
			}
			_, size = decodeRune(s, i, hi)
			return i + size
		}
	}
	return lo
}

// decodeRune is utf8.DecodeRune of s[lo:hi] for either representation.
//
//gscope:hotpath
func decodeRune[T text](s T, lo, hi int) (rune, int) {
	var b [utf8.UTFMax]byte
	n := copy(b[:], s[lo:min(hi, lo+utf8.UTFMax)])
	return utf8.DecodeRune(b[:n])
}

// decodeLastRune is utf8.DecodeLastRune of s[lo:hi] for either
// representation; it never looks further back than utf8.UTFMax bytes.
//
//gscope:hotpath
func decodeLastRune[T text](s T, lo, hi int) (rune, int) {
	var b [utf8.UTFMax]byte
	n := copy(b[:], s[max(lo, hi-utf8.UTFMax):hi])
	return utf8.DecodeLastRune(b[:n])
}
