package main

import (
	"math"

	"repro/internal/tuple"
)

// The generated input. Tuple i of the live stream belongs to signal
// i%nsig and is that signal's k-th sample, k = i/nsig. Its value is a
// per-signal monotone counter with seeded increments:
//
//	value(s, k) = k<<10 | (mix(seed, s, k) & 1023)
//
// so every (signal, value) pair is unique, the value alone recovers k
// (value>>10), and the low bits make a corrupted or misattributed value
// detectable bit-exactly. Stamps are stream time, tuplesPerMS tuples to a
// millisecond, so the whole input — names, stamps, values — is a pure
// function of the seed and the index. The history span (record-catchup's
// pre-recorded window) is a second stream of the same shape on its own
// signal names. It is stamped far ahead of the live stream, as if its
// publisher's clock ran days ahead: a since window inside the span then
// ends at the span's last stamp, the session index skips every live
// segment, and every join reads the same bytes however long the live
// stream has run.
const (
	nsig        = 16
	tuplesPerMS = 64
	spanTuples  = nsig * 4096 // the history span: 1024 ms of stream time
	spanMS      = spanTuples / tuplesPerMS
	spanBaseMS  = 1 << 30 // the span's first stamp, ~12 days ahead of the live stream
	liveBaseMS  = 1000
	saltLive    = 0x9e3779b97f4a7c15
	saltHist    = 0xc2b2ae3d27d4eb4f
)

var liveNames, histNames [nsig]string

func init() {
	for s := range liveNames {
		liveNames[s] = "sig." + twoDigits(s)
		histNames[s] = "hist." + twoDigits(s)
	}
}

func twoDigits(n int) string { return string([]byte{byte('0' + n/10), byte('0' + n%10)}) }

// input is the seeded definition of everything a run offers.
type input struct{ seed uint64 }

// mix is splitmix64's finalizer over the seed, salt, signal and index.
func mix(seed, salt uint64, s, k int64) uint64 {
	z := seed ^ salt ^ uint64(s)<<56 ^ uint64(k)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (in input) value(salt uint64, s, k int64) float64 {
	return float64(k<<10 | int64(mix(in.seed, salt, s, k)&1023))
}

// live returns live tuple i.
func (in input) live(i int64) tuple.Tuple {
	s, k := i%nsig, i/nsig
	return tuple.Tuple{Time: liveBaseMS + i/tuplesPerMS, Value: in.value(saltLive, s, k), Name: liveNames[s]}
}

// hist returns history-span tuple j.
func (in input) hist(j int64) tuple.Tuple {
	s, k := j%nsig, j/nsig
	return tuple.Tuple{Time: spanBaseMS + j/tuplesPerMS, Value: in.value(saltHist, s, k), Name: histNames[s]}
}

// signalOf maps a generated name to its signal number and stream, or
// reports that the name was never generated.
func signalOf(name string) (s int64, hist bool, ok bool) {
	var prefix string
	switch {
	case len(name) == 6 && name[:4] == "sig.":
		prefix = name[:4]
	case len(name) == 7 && name[:5] == "hist.":
		prefix, hist = name[:5], true
	default:
		return 0, false, false
	}
	d1, d2 := name[len(prefix)], name[len(prefix)+1]
	if d1 < '0' || d1 > '9' || d2 < '0' || d2 > '9' {
		return 0, false, false
	}
	s = int64(d1-'0')*10 + int64(d2-'0')
	return s, hist, s < nsig
}

// locate recovers the index of a received tuple and checks it bit-exact
// against the generator: ok is false for anything the input never held.
func (in input) locate(t tuple.Tuple) (idx int64, hist bool, ok bool) {
	s, hist, ok := signalOf(t.Name)
	if !ok || !(t.Value >= 0 && t.Value < 1<<52) {
		return 0, false, false
	}
	k := int64(t.Value) >> 10
	idx = k*nsig + s
	want := in.live(idx)
	if hist {
		want = in.hist(idx)
	}
	if math.Float64bits(want.Value) != math.Float64bits(t.Value) || want.Time != t.Time {
		return 0, false, false
	}
	return idx, hist, true
}

// tupleSum is an order-independent checksum term for one tuple.
func tupleSum(t tuple.Tuple) uint64 {
	s, _, _ := signalOf(t.Name)
	return mix(math.Float64bits(t.Value), uint64(len(t.Name)), s, t.Time)
}

// histWindow returns the count and checksum of the span's tuples stamped
// at or after offsetMS into the span — what a since join must backfill.
func (in input) histWindow(offsetMS int64) (n int64, sum uint64) {
	for j := offsetMS * tuplesPerMS; j < spanTuples; j++ {
		n++
		sum += tupleSum(in.hist(j))
	}
	return n, sum
}

// inputChecksum hashes the first n live tuples and the whole span as
// wire text, so two generators can be compared byte for byte.
func (in input) inputChecksum(n int64) uint64 {
	h := uint64(14695981039346656037)
	var b []byte
	add := func(t tuple.Tuple) {
		b = tuple.AppendWire(b[:0], t)
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	for j := int64(0); j < spanTuples; j++ {
		add(in.hist(j))
	}
	for i := int64(0); i < n; i++ {
		add(in.live(i))
	}
	return h
}
