package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refParse and refIsComment are the straightforward string decoder the
// shared scanner replaced: TrimSpace, Cut on the first space, TrimSpace,
// Cut again, TrimSpace the name, then strconv for both numbers. They are
// the oracle the differential tests hold Parse, IsComment and ParseBytes
// to, error messages included.
func refParse(line string) (Tuple, error) {
	s := strings.TrimSpace(line)
	if s == "" {
		return Tuple{}, fmt.Errorf("tuple: empty line")
	}
	timeField, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return Tuple{}, fmt.Errorf("tuple: %q: missing value field", line)
	}
	valueField, name, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	ms, err := strconv.ParseInt(timeField, 10, 64)
	if err != nil {
		return Tuple{}, fmt.Errorf("tuple: %q: bad time: %w", line, err)
	}
	v, err := strconv.ParseFloat(valueField, 64)
	if err != nil {
		return Tuple{}, fmt.Errorf("tuple: %q: bad value: %w", line, err)
	}
	return Tuple{Time: ms, Value: v, Name: name}, nil
}

func refIsComment(line string) bool {
	s := strings.TrimSpace(line)
	return s == "" || strings.HasPrefix(s, "#")
}

// sameTuple compares tuples bit for bit (NaN payloads and the sign of
// zero included).
func sameTuple(a, b Tuple) bool {
	return a.Time == b.Time && math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Name == b.Name
}

// checkLine holds Parse, IsComment and ParseBytes to the reference
// decoder on one line.
func checkLine(t *testing.T, line string) {
	t.Helper()
	wantComment := refIsComment(line)
	if got := IsComment(line); got != wantComment {
		t.Fatalf("IsComment(%q) = %v, reference %v", line, got, wantComment)
	}
	want, wantErr := refParse(line)
	got, err := Parse(line)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Parse(%q) error = %v, reference %v", line, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("Parse(%q) error = %q, reference %q", line, err, wantErr)
	case err == nil && !sameTuple(got, want):
		t.Fatalf("Parse(%q) = %+v, reference %+v", line, got, want)
	}

	ms, v, name, kind := ParseBytes([]byte(line))
	switch {
	case wantComment:
		if kind != LineComment {
			t.Fatalf("ParseBytes(%q) kind = %d, want comment", line, kind)
		}
	case wantErr != nil:
		if kind != LineBad {
			t.Fatalf("ParseBytes(%q) kind = %d, want bad (%v)", line, kind, wantErr)
		}
	default:
		if kind != LineTuple {
			t.Fatalf("ParseBytes(%q) kind = %d, want tuple", line, kind)
		}
		if b := (Tuple{Time: ms, Value: v, Name: string(name)}); !sameTuple(b, want) {
			t.Fatalf("ParseBytes(%q) = %+v, reference %+v", line, b, want)
		}
	}
}

// parseSeeds cover every branch of the scanner: unicode white space at
// each field edge, tabs (which are not separators), signs, negative
// zero, the integer fast path's digit limits on both sides, hex, inf and
// NaN values, names with spaces, comments and carriage returns.
var parseSeeds = []string{
	"1500 42 CWND",
	"1500 42.5 CWND",
	"0 0",
	"99 -3",
	"10 1 conn errors per sec",
	"  5   7.5   sig  ",
	"",
	"   ",
	"# gscope-hub 1",
	"  # indented comment",
	"#",
	"1",
	"1 ",
	"bogus",
	"1\t2 x",
	"1 2\tx",
	"\t1 2 x\t",
	"1 \t2 x",
	"1 2 \tname",
	"+5 +7 s",
	"-5 -7 s",
	"-0 -0 s",
	"5 +0 s",
	"5 -00 s",
	"+ 1 s",
	"1 - s",
	"1 -+1 s",
	"007 0012 s",
	"123456789012345678 1 s",
	"1234567890123456789 1 s",
	"9223372036854775807 1 s",
	"9223372036854775808 1 s",
	"-9223372036854775808 1 s",
	"1 123456789012345 s",
	"1 1234567890123456 s",
	"1 9007199254740993 s",
	"1 0x1p-2 s",
	"1 0x10 s",
	"0x10 1 s",
	"1 1_000 s",
	"1_000 1 s",
	"1 inf s",
	"1 -Inf s",
	"1 +Infinity s",
	"1 NaN s",
	"1 nan",
	"1 1e308 s",
	"1 1e309 s",
	"1 .5 s",
	"1 5. s",
	"1500 42.5 CWND\r",
	"7 2 \rcarriage\r",
	"1 2 a\rb",
	" 1 2 nbsp-led",
	"1 2 name ",
	"1 2 x",
	"1  2 x",
	"1 2 　wide",
	"1 2 \u0085nel",
	" ",
	" # comment",
	"1 2 café",
	"1 2 \xc2",
	"1 2 x\xc2",
	"1 2 \xc2\x85\x85",
	"1 2 \xe2\x80",
	"\xff1 2 x",
	"1 2 \x85",
	"1 2 ok \xe2\x80\x83",
}

func TestParseMatchesReference(t *testing.T) {
	for _, line := range parseSeeds {
		checkLine(t, line)
	}
}

// FuzzParseBytes is the differential target for the line decoder: for
// every input, ParseBytes and IsComment + Parse must agree with the
// reference string decoder on whether the line is a comment, a tuple or
// an error, on the tuple's bits, and (for Parse) on the error message.
func FuzzParseBytes(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(checkLine)
}

func TestParseBytesZeroAlloc(t *testing.T) {
	lines := [][]byte{
		[]byte("1700000000123 42 sig.07"),
		[]byte("1700000000123 -42 name with spaces"),
		[]byte("  # a comment"),
		[]byte("5 7"),
	}
	table := map[string]string{"sig.07": "sig.07", "name with spaces": "name with spaces", "": ""}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, ln := range lines {
			_, _, name, kind := ParseBytes(ln)
			if kind == LineTuple {
				sink += len(table[string(name)])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseBytes + name lookup allocated %v times per round", allocs)
	}
	_ = sink
}
