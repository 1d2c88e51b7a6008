package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
)

// epoch anchors every benchmark timestamp on the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// sink is one viewer connection's receiving end: it checks every tuple
// against the generator, keeps the delivery-latency samples and counts
// what arrived. Callbacks come from one goroutine (the viewer loop or the
// SSE reader); the mutex orders them against the benchmark's reads.
type sink struct {
	in     input
	pass   func(s int64) bool // the connection's signal filter
	decim  bool               // backfill is decimated: stamps are bucket ends
	notify chan struct{}      // pulsed after every batch; capacity 1
	ready  chan struct{}      // closed on the hub's handshake frame
	ended  chan struct{}      // closed on snapshot-end or backfill-end

	live atomic.Int64 // live tuples received in order, duplicates excluded
	acct atomic.Int64 // live tuples received or known lost to a gap

	mu        sync.Mutex
	next      [nsig]int64 // next expected k per live signal; -1 before the first
	histNext  [nsig]int64
	mode      string // "", "snapshot" or "backfill"
	readyDone bool
	endDone   bool
	lost      int64 // tuples skipped by a gap in a signal's sequence
	lostSeen  int64 // lost already added to acct
	corrupt   int64 // tuples the generator never made, or out of order
	bfN       int64 // backfill tuples
	bfSum     uint64
	batches   int64
	tuples    int64

	// The light phase's schedule: from index lo, per tuples are due
	// every tick after start; latencies of indexes in [lo, hi) are kept.
	lo, hi     int64
	start, per int64
	lat        []int64

	tr *tracer // non-nil in the traced pass

	first string // the first problem seen, for the log
}

// problem counts n bad tuples of a kind and remembers the first one.
func (k *sink) problem(count *int64, n int64, what string, t tuple.Tuple) {
	*count += n
	if k.first == "" {
		k.first = fmt.Sprintf("%s: %s in %q mode", what, t.String(), k.mode)
	}
}

// newSink makes a sink that expects every passing signal from k=0
// (fromStart) or from wherever the connection joins the stream.
func newSink(in input, pass func(int64) bool, fromStart bool) *sink {
	k := &sink{in: in, pass: pass, notify: make(chan struct{}, 1),
		ready: make(chan struct{}), ended: make(chan struct{})}
	for s := range k.next {
		k.next[s], k.histNext[s] = -1, -1
		if fromStart {
			k.next[s] = 0
		}
	}
	return k
}

// control follows the hub's framing.
func (k *sink) control(verb string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch verb {
	case "gscope-hub":
		if !k.readyDone {
			k.readyDone = true
			close(k.ready)
		}
	case "snapshot", "backfill":
		k.mode = verb
	case "snapshot-end", "backfill-end":
		k.mode = ""
		if !k.endDone {
			k.endDone = true
			close(k.ended)
		}
	}
}

// batch checks and counts one delivered batch.
func (k *sink) batch(ts []tuple.Tuple) {
	now := nanotime()
	k.mu.Lock()
	k.batches++
	k.tuples += int64(len(ts))
	var got, lost int64
	for _, t := range ts {
		got += k.one(t, now)
	}
	lost, k.lostSeen = k.lost-k.lostSeen, k.lost
	k.mu.Unlock()
	k.live.Add(got)
	k.acct.Add(got + lost)
	select {
	case k.notify <- struct{}{}:
	default:
	}
}

// one checks a tuple and reports whether it counts as a live delivery.
func (k *sink) one(t tuple.Tuple, now int64) int64 {
	if k.decim && k.mode == "backfill" {
		k.decimated(t)
		return 0
	}
	idx, hist, ok := k.in.locate(t)
	if !ok {
		k.problem(&k.corrupt, 1, "not generated", t)
		return 0
	}
	s, kk := idx%nsig, idx/nsig
	if hist {
		// History-span tuples arrive in snapshots and backfills only.
		switch {
		case k.mode == "":
			k.problem(&k.corrupt, 1, "history outside a backfill", t)
		case kk <= k.histNext[s]:
			k.problem(&k.corrupt, 1, "history duplicated or reordered", t)
		default:
			k.histNext[s] = kk
			if k.mode == "backfill" {
				k.bfN++
				k.bfSum += tupleSum(t)
			}
		}
		return 0
	}
	if !k.pass(s) {
		k.problem(&k.corrupt, 1, "outside the filter", t)
		return 0
	}
	switch n := k.next[s]; {
	case n < 0:
	case kk < n:
		k.problem(&k.corrupt, 1, "duplicated or reordered", t)
		return 0
	case kk > n:
		k.problem(&k.lost, kk-n, fmt.Sprintf("gap of %d before", kk-n), t)
	}
	k.next[s] = kk + 1
	switch k.mode {
	case "backfill":
		k.bfN++
		k.bfSum += tupleSum(t)
		return 0
	case "snapshot":
		return 0
	}
	if idx >= k.lo && idx < k.hi {
		due := k.start + ((idx-k.lo)/k.per+1)*int64(tick)
		k.lat = append(k.lat, now-due)
		if k.tr != nil {
			k.tr.view(idx, due, now)
		}
	}
	return 1
}

// decimated checks one tuple of a min/max envelope backfill. Each
// carries a real sample's value under its bucket's end stamp, and buckets
// may overlap, so only the value and the filter can be checked.
func (k *sink) decimated(t tuple.Tuple) {
	s, hist, ok := signalOf(t.Name)
	if ok && t.Value >= 0 && t.Value < 1<<52 {
		idx := int64(t.Value)>>10*nsig + s
		want := k.in.live(idx)
		if hist {
			want = k.in.hist(idx)
		}
		ok = math.Float64bits(want.Value) == math.Float64bits(t.Value)
	} else {
		ok = false
	}
	switch {
	case !ok:
		k.problem(&k.corrupt, 1, "not generated", t)
	case !hist && !k.pass(s):
		k.problem(&k.corrupt, 1, "outside the filter", t)
	default:
		k.bfN++
		k.bfSum += tupleSum(t)
	}
}

// schedule records the light phase's due times before it starts.
func (k *sink) schedule(lo, hi, start, per int64, tr *tracer) {
	k.mu.Lock()
	k.lo, k.hi, k.start, k.per, k.tr = lo, hi, start, per, tr
	if cap(k.lat)-len(k.lat) < int(hi-lo) {
		k.lat = append(make([]int64, 0, len(k.lat)+int(hi-lo)), k.lat...)
	}
	k.mu.Unlock()
}

// takeLatencies returns and clears the kept latency samples.
func (k *sink) takeLatencies() []int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.lat
	k.lat = nil
	k.lo, k.hi, k.tr = 0, 0, nil
	return l
}

// firstProblem describes the first bad tuple, or returns "".
func (k *sink) firstProblem() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.first
}

// counts snapshots the error counters.
func (k *sink) counts() (lost, corrupt, bfN int64, bfSum uint64, batches, tuples int64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lost, k.corrupt, k.bfN, k.bfSum, k.batches, k.tuples
}

// waitAcct blocks until n live tuples are accounted for — received or
// known lost — or the deadline passes, reporting whether they were.
func (k *sink) waitAcct(n int64, d time.Duration) bool {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for k.acct.Load() < n {
		select {
		case <-k.notify:
		case <-deadline.C:
			return k.acct.Load() >= n
		}
	}
	return true
}

// waitFor waits for ch to close.
func waitFor(ch <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}
