package main

import (
	"path"
	"runtime"
	"sort"
	"time"

	"repro/internal/netscope"
	"repro/internal/tuple"
)

// gen is the open-loop generator: it offers live tuples in index order
// through the publisher, on a fixed schedule or as fast as accepted.
type gen struct {
	in   input
	pub  *netscope.Client
	next int64 // the next live index to offer
	buf  []tuple.Tuple

	late     []int64 // ns the generator ran behind schedule, per send
	timeSend bool    // traced: time the calls into Client.SendBatch
	sendNS   int64
	sendN    int64
	capture  [][]tuple.Tuple // traced: batches kept for the codec replay
}

const captureBatches = 256

// send offers live tuples [next, upTo).
func (g *gen) send(upTo int64) {
	for g.next < upTo {
		n := min(upTo-g.next, maxBatch)
		g.buf = g.buf[:0]
		for i := g.next; i < g.next+n; i++ {
			g.buf = append(g.buf, g.in.live(i))
		}
		if g.timeSend {
			if len(g.capture) < captureBatches {
				g.capture = append(g.capture, append([]tuple.Tuple(nil), g.buf...))
			}
			t0 := nanotime()
			g.pub.SendBatch(g.buf) //nolint:errcheck // losses show as undelivered tuples
			g.sendNS += nanotime() - t0
			g.sendN += n
		} else {
			g.pub.SendBatch(g.buf) //nolint:errcheck // losses show as undelivered tuples
		}
		g.next += n
	}
}

// pace offers n tuples (n < 0: until stop closes) at rate, one batch per
// tick: batch m holds the rate·tick tuples after batch m-1 and is due at
// start + m·tick. A late generator sends the overdue batches back to back.
func (g *gen) pace(rate float64, n int64, start int64, stop <-chan struct{}) {
	first := g.next
	per := int64(rate * tick.Seconds())
	for m := int64(1); ; m++ {
		due := start + m*int64(tick)
		if d := due - nanotime(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		g.late = append(g.late, nanotime()-due)
		upTo := first + m*per
		if n >= 0 && upTo > first+n {
			upTo = first + n
		}
		g.send(upTo)
		if n >= 0 && g.next-first >= n {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// paced runs one fixed-rate phase of d on the generator goroutine and
// returns when every tuple is offered. sched, when set, learns the
// schedule before the first batch is due.
func (b *bench) paced(rate float64, d time.Duration, sched func(lo, hi, start, per int64)) {
	n := int64(rate * d.Seconds())
	runtime.GC()
	start := nanotime()
	if sched != nil {
		sched(b.g.next, b.g.next+n, start, int64(rate*tick.Seconds()))
	}
	done := make(chan struct{})
	go func() { defer close(done); b.g.pace(rate, n, start, nil) }()
	<-done
}

// settle waits until the main viewer has every tuple offered so far.
func (b *bench) settle() {
	b.main.waitAcct(b.passing(b.g.next), waitSettle)
}

// light runs the light phase and returns its delivery latencies in ms,
// sorted.
func (b *bench) light(d time.Duration, tr *tracer) []float64 {
	b.paced(b.w.light, d, func(lo, hi, start, per int64) {
		if tr != nil {
			tr.arm(b.r, lo, hi)
		}
		b.main.schedule(lo, hi, start, per, tr)
	})
	b.settle()
	ns := b.main.takeLatencies()
	ms := make([]float64, len(ns))
	for i, x := range ns {
		ms[i] = float64(x) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// heavy runs the heavy phase and returns the process CPU per tuple
// offered, in ns, including the time to deliver the last of them.
func (b *bench) heavy(d time.Duration, traced bool) float64 {
	b.g.timeSend = traced
	first := b.g.next
	runtime.GC()
	c0 := cpuNanos()
	b.paced(b.w.heavy, d, nil)
	b.settle()
	b.g.timeSend = false
	return float64(cpuNanos()-c0) / float64(b.g.next-first)
}

// burst offers n tuples as fast as the publisher accepts them, never
// more than the workload's window ahead of the viewer, and returns the
// rate in tuples/s at which the viewer decoded them.
func (b *bench) burst(n int64) float64 {
	runtime.GC()
	t0 := nanotime()
	end := b.g.next + n
	for b.g.next < end {
		for b.passing(b.g.next)-b.main.acct.Load() > b.w.window-drainBatch {
			if !waitFor(b.main.notify, waitLong) {
				break
			}
		}
		b.g.send(min(b.g.next+drainBatch, end))
	}
	b.settle()
	return float64(n) / (float64(nanotime()-t0) / 1e9)
}

// cycle runs one light, one heavy and then the drain phase, and returns
// the light phase's latencies in ms, the heavy phase's CPU per tuple and
// the drain bursts' rates.
func (b *bench) cycle(lightD, heavyD time.Duration, bursts int, tr *tracer) (lat []float64, cpu float64, rates []float64) {
	lat = b.light(lightD, tr)
	cpu = b.heavy(heavyD, tr != nil)
	for n := 0; n < bursts; n++ {
		rates = append(rates, b.burst(b.w.burst))
	}
	return lat, cpu, rates
}

// closeMain closes the main viewer and books its failures.
func (b *bench) closeMain() {
	want := b.passing(b.g.next)
	b.main.waitAcct(want, waitSettle)
	b.view.Close() //nolint:errcheck // the viewer leaves for the join phase
	got := b.main.live.Load()
	_, corrupt, _, _, _, _ := b.main.counts()
	b.attempted += want
	b.failed += want - got
	if corrupt > 0 {
		b.correct = false
		b.log("main viewer: %d corrupt tuples; first %s", corrupt, b.main.firstProblem())
	}
	if got != want {
		b.log("main viewer: %d of %d tuples delivered; first %s", got, want, b.main.firstProblem())
	}
}

// joins runs the catch-up phase: one viewer at a time joins with a
// backfill request. On record-catchup the publisher stays at the light
// rate meanwhile, so recorder writes run beside the session reads, and the
// joins read fixed windows of the history span. On the other workloads
// the publisher pauses and every join asks for the same trailing window
// at catchupCols columns, which the hub's tiered store serves. It returns the catch-up times in ms of the since joins and of
// the cols joins.
func (b *bench) joins(n int, tr *traceRun) (since, cols []float64) {
	if b.w.record {
		stop := make(chan struct{})
		done := make(chan struct{})
		start := nanotime()
		go func() { defer close(done); b.g.pace(b.w.light, -1, start, stop) }()
		defer func() { close(stop); <-done }()
	}

	var plan []join
	for r := 0; r < n; r++ {
		if !b.w.record {
			plan = append(plan, join{since: trailing, cols: catchupCols})
			continue
		}
		for _, ms := range sinceWindows {
			plan = append(plan, join{since: spanSince(ms), signals: "hist.*"})
		}
		plan = append(plan, join{since: spanSince(sinceWindows[1]), cols: catchupCols, signals: "hist.*"})
	}
	start := nanotime()
	for n, j := range plan {
		if b.w.record {
			// Joins keep to a schedule, so each finds the flight log's
			// active segment at the same fill from run to run.
			if d := start + int64(n)*int64(joinEvery) - nanotime(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		b.attempted++
		if tr != nil && b.r.lg != nil && j.cols == 0 {
			tr.flush()
		}
		ms, ok := b.join(j, tr)
		if !ok {
			b.failed++
			continue
		}
		if j.cols > 0 && j.signals != "" {
			cols = append(cols, ms)
		} else {
			since = append(since, ms)
		}
	}
	return since, cols
}

// join opens one catch-up viewer, times it from dialing to the end of
// its backfill and checks what it received.
func (b *bench) join(j join, tr *traceRun) (float64, bool) {
	pass := b.pass
	if j.signals != "" {
		pass = func(int64) bool { return false }
	}
	k := newSink(b.in, pass, false)
	k.decim = j.cols > 0
	t0 := nanotime()
	v, err := b.r.openViewer(k, j)
	if err != nil {
		b.log("join: %v", err)
		return 0, false
	}
	defer b.leave(v)
	if !waitFor(k.ended, waitLong) {
		b.log("join %+v: no backfill-end", j)
		return 0, false
	}
	ms := float64(nanotime()-t0) / 1e6
	lost, corrupt, bfN, bfSum, _, _ := k.counts()
	if tr != nil {
		tr.joined(j, bfN)
	}
	if corrupt > 0 {
		b.correct = false
		b.log("join %+v: %d corrupt tuples; first %s", j, corrupt, k.firstProblem())
		return ms, false
	}
	if lost > 0 || bfN == 0 {
		b.log("join %+v: backfill %d, %d lost; first %s", j, bfN, lost, k.firstProblem())
		return ms, false
	}
	var wantN int64
	var wantSum uint64
	switch {
	case j.signals == "":
		// With the publisher paused, every trailing join must get the
		// backfill the first one got.
		if b.trailingN == 0 {
			b.trailingN, b.trailingSum = bfN, bfSum
		}
		wantN, wantSum = b.trailingN, b.trailingSum
	case j.cols == 0:
		wantN, wantSum = b.histWant(int64(j.since/time.Millisecond) - spanBaseMS)
	}
	if wantN > 0 {
		if bfN != wantN || bfSum != wantSum {
			b.correct = false
			b.log("join %+v: backfill %d tuples sum %x, want %d sum %x", j, bfN, bfSum, wantN, wantSum)
			return ms, false
		}
	}
	return ms, true
}

// leave closes a join's viewer and waits until the hub has let go of it,
// so no join overlaps the teardown of the one before.
func (b *bench) leave(v viewer) {
	v.Close() //nolint:errcheck // one join at a time
	deadline := nanotime() + int64(waitSettle)
	for nanotime() < deadline {
		var n int
		b.r.onLoop(func() { n = b.r.srv.Subscribers() })
		if n == 0 {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// spanSince is the absolute since of a join offsetMS into the span.
func spanSince(offsetMS int64) time.Duration {
	return time.Duration(spanBaseMS+offsetMS) * time.Millisecond
}

func matchFilter(pattern, name string) bool {
	ok, err := path.Match(pattern, name)
	return ok && err == nil
}
