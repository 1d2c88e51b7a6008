package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/reclog"
	"repro/internal/tuple"
)

// tracer splits the traced light phase's delivery latency into hops: due
// → Server.OnTuple (publish to ingest) and OnTuple → viewer callback
// (ingest to view), stamping 1 in traceEvery samples of each signal.
type tracer struct {
	lo, hi int64 // the light phase's indexes
	k0     int64 // the first sampled k
	stamps []atomic.Int64

	// Sums in ns, written by the viewer under its sink's mutex and read
	// once the phase has settled.
	e2e, e2eN      int64
	p2i, i2v, hopN int64
}

// arm sizes the stamp table for the light phase's indexes [lo, hi) and
// installs the hook.
func (t *tracer) arm(r *rig, lo, hi int64) {
	t.lo, t.hi = lo, hi
	t.k0 = lo / nsig / traceEvery
	t.stamps = make([]atomic.Int64, ((hi-lo)/nsig/traceEvery+2)*nsig)
	r.onLoop(func() { r.srv.OnTuple = t.onTuple })
}

// slot returns the stamp slot of live index idx, or -1 if unsampled.
func (t *tracer) slot(idx int64) int {
	k := idx / nsig
	if idx < t.lo || idx >= t.hi || k%traceEvery != 0 {
		return -1
	}
	return int((k/traceEvery-t.k0)*nsig + idx%nsig)
}

// onTuple is the hub-side hook: it runs on the hub loop for every
// delivered tuple.
func (t *tracer) onTuple(tu tuple.Tuple) {
	s, hist, ok := signalOf(tu.Name)
	if !ok || hist || !(tu.Value >= 0) {
		return
	}
	if i := t.slot(int64(tu.Value)>>10*nsig + s); i >= 0 {
		t.stamps[i].Store(nanotime())
	}
}

// view is the viewer-side end of a traced tuple.
func (t *tracer) view(idx, due, now int64) {
	t.e2e += now - due
	t.e2eN++
	if i := t.slot(idx); i >= 0 {
		if in := t.stamps[i].Load(); in != 0 {
			t.p2i += in - due
			t.i2v += now - in
			t.hopN++
		}
	}
}

// traceRun gathers a traced run's per-layer metrics across its rounds.
type traceRun struct {
	b      *bench
	tracer *tracer

	baseLat, lat  []float64 // untraced and traced light-phase latencies, ms
	baseCPU       float64   // untraced heavy-phase ns/tuple, median
	cpus          []float64 // traced heavy-phase ns/tuple, per round
	goroutines    []float64 // goroutines a viewer connection adds, per round
	late          []float64 // ms the generator ran behind, traced passes
	rtAlloc, rtGC float64
	tuples        int64
	sendNS, sendN int64 // time inside Client.SendBatch, traced heavy phases

	n0       int64
	lateFrom int
	rt0      []metrics.Sample

	probeStop  chan struct{}
	probeDone  chan struct{}
	mu         sync.Mutex // guards waits and backlogMax (the hub loop writes them)
	waits      []float64
	backlogMax int

	flushes    []float64
	bfTuples   []float64
	joinTuples int64 // backfill tuples of the round's joins

	// Per-round counters, summed before each rig is torn down.
	dropped, udpLost, udpReord, udpRecov, udpResent int64
	webDropped, webBytes, webTuples                 int64
	rlDropped, rlWritten, rlBytes                   int64
	batches, batchTuples                            int64
	webviewUS, replayNS                             []float64
}

func newTraceRun(b *bench) *traceRun { return &traceRun{b: b, tracer: &tracer{}} }

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// begin starts a traced pass: a probe posts a no-op to the hub loop
// every few ms and samples the subscriber backlog. The OnTuple hook goes
// in when the light phase arms the tracer.
func (tr *traceRun) begin() {
	b := tr.b
	tr.n0 = b.g.next
	tr.lateFrom = len(b.g.late)
	tr.rt0 = readRuntime()
	tr.probeStop, tr.probeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tr.probeDone)
		tk := time.NewTicker(3 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-tr.probeStop:
				return
			case <-tk.C:
			}
			t0 := nanotime()
			b.r.loop.Invoke(func() {
				wait := float64(nanotime()-t0) / 1e3
				backlog := b.r.srv.SubscriberBacklog()
				tr.mu.Lock()
				tr.waits = append(tr.waits, wait)
				tr.backlogMax = max(tr.backlogMax, backlog)
				tr.mu.Unlock()
			})
		}
	}()
}

// end removes the hooks and books the traced pass.
func (tr *traceRun) end(lat []float64, cpu float64) {
	b := tr.b
	close(tr.probeStop)
	<-tr.probeDone
	b.r.onLoop(func() { b.r.srv.OnTuple = nil })
	rt := readRuntime()
	tr.tuples += b.g.next - tr.n0
	tr.rtAlloc += float64(rt[0].Value.Uint64() - tr.rt0[0].Value.Uint64())
	tr.rtGC += float64(rt[1].Value.Uint64() - tr.rt0[1].Value.Uint64())
	tr.lat = append(tr.lat, lat...)
	tr.cpus = append(tr.cpus, cpu)
	tr.sendNS += b.g.sendNS
	tr.sendN += b.g.sendN
	b.g.sendNS, b.g.sendN = 0, 0
	for _, x := range b.g.late[tr.lateFrom:] {
		tr.late = append(tr.late, float64(x)/1e6)
	}
}

// collect books the round's counters before its rig is torn down.
func (tr *traceRun) collect() {
	b := tr.b
	r := b.r
	var store bool
	r.onLoop(func() {
		fs := r.srv.FanoutStats()
		tr.dropped += fs.Dropped
		tr.udpLost += fs.UDPLost
		tr.udpReord += fs.UDPReordered
		tr.udpRecov += fs.UDPRecovered
		tr.webDropped += fs.WebDropped
		tr.webBytes += fs.WebBytes
		store = r.srv.BackfillEnabled()
	})
	if ps, ok := r.pub.UDPStats(); ok {
		tr.udpResent += ps.Resent
	}
	_, _, _, _, batches, tuples := b.main.counts()
	tr.batches += batches
	tr.batchTuples += tuples
	if b.w.web {
		tr.webTuples += tuples + tr.joinTuples
	}
	tr.joinTuples = 0
	if store {
		pat, since := []string{"sig.*"}, int64(trailing/time.Millisecond)
		if b.w.record {
			pat, since = []string{"hist.*"}, spanBaseMS+sinceWindows[1]
		}
		for i := 0; i < 5; i++ {
			r.onLoop(func() {
				t0 := nanotime()
				r.srv.WebView(pat, since, catchupCols) //nolint:errcheck // patterns are valid
				tr.webviewUS = append(tr.webviewUS, float64(nanotime()-t0)/1e3)
			})
		}
	}
	if r.lg != nil {
		_, dropped, written := r.lg.Stats()
		tr.rlDropped += dropped
		tr.rlWritten += written
		tr.rlBytes += sessionBytes(r.dir)
		if ns := replayNS(r.dir); ns > 0 {
			tr.replayNS = append(tr.replayNS, ns)
		}
	}
}

// flush times the flight log's Flush barrier, the one every reclog join
// pays before its read.
func (tr *traceRun) flush() {
	t0 := nanotime()
	tr.b.r.lg.Flush() //nolint:errcheck // timing only; the join checks the data
	tr.flushes = append(tr.flushes, float64(nanotime()-t0)/1e6)
}

// joined books one join's backfill.
func (tr *traceRun) joined(j join, bfN int64) {
	tr.joinTuples += bfN
	if j.signals == "" || j.cols == 0 {
		tr.bfTuples = append(tr.bfTuples, float64(bfN))
	}
}

// timePerTuple runs fn (which handles n tuples) until at least 50ms have
// passed and returns ns per tuple.
func timePerTuple(n int, fn func()) float64 {
	fn() // warm
	var reps int
	t0 := nanotime()
	for reps == 0 || nanotime()-t0 < 50e6 {
		fn()
		reps++
	}
	return float64(nanotime()-t0) / float64(reps*n)
}

// codecs replays the captured heavy-phase batches through the public
// codecs.
func (tr *traceRun) codecs(m map[string]metric) {
	batches := tr.b.g.capture
	n := 0
	for _, bt := range batches {
		n += len(bt)
	}
	if n == 0 {
		return
	}
	var text []byte
	for _, bt := range batches {
		text = tuple.AppendWireBatch(text, bt)
	}
	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	m["tuple.text_parse_ns_per_tuple"] = metric{timePerTuple(n, func() {
		for _, l := range lines {
			tuple.Parse(l) //nolint:errcheck // input is known good
		}
	}), "ns"}

	enc := tuple.NewBinaryEncoder()
	var bin []byte
	m["tuple.v3_encode_ns_per_tuple"] = metric{timePerTuple(n, func() {
		bin = bin[:0]
		for _, bt := range batches {
			bin = enc.AppendBatch(bin, bt)
		}
	}), "ns"}
	m["tuple.v3_bytes_per_tuple"] = metric{float64(len(bin)) / float64(n), "bytes"}

	// A whole stream from a fresh encoder, dictionary included.
	fresh := tuple.NewBinaryEncoder()
	var stream []byte
	for _, bt := range batches {
		stream = fresh.AppendBatch(stream, bt)
	}
	onLine := func(string) {}
	onTuples := func([]tuple.Tuple) {}
	m["tuple.v3_decode_ns_per_tuple"] = metric{timePerTuple(n, func() {
		tuple.NewStreamDecoder().Feed(stream, onLine, onTuples) //nolint:errcheck // input is known good
	}), "ns"}

	var js []byte
	m["tuple.json_encode_ns_per_tuple"] = metric{timePerTuple(n, func() {
		for _, bt := range batches {
			js = tuple.AppendJSONBatch(js[:0], bt)
		}
	}), "ns"}
}

// medianOr0 is the median of xs, or 0 for a layer the workload leaves
// idle.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// meanMS turns a sum of n ns samples into a mean in ms.
func meanMS(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}

// metrics assembles the per-layer metrics once the run is over.
func (tr *traceRun) metrics(cols []float64) map[string]metric {
	b := tr.b
	t := tr.tracer
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }

	// netscope
	put("netscope.client.send_ns_per_tuple", ratio(tr.sendNS, tr.sendN), "ns")
	e2e, p2i, i2v := meanMS(t.e2e, t.e2eN), meanMS(t.p2i, t.hopN), meanMS(t.i2v, t.hopN)
	put("netscope.hop.publish_to_ingest_mean_ms", p2i, "ms")
	put("netscope.hop.ingest_to_view_mean_ms", i2v, "ms")
	put("netscope.hop.e2e_mean_ms", e2e, "ms")
	put("netscope.hop.residual_ms", e2e-p2i-i2v, "ms")
	put("netscope.hub.dropped", float64(tr.dropped), "chunks")
	tr.mu.Lock()
	put("netscope.hub.backlog_max", float64(tr.backlogMax), "chunks")
	put("glib.loop_invoke_wait_p50_us", medianOr0(tr.waits), "us")
	tr.mu.Unlock()
	put("netscope.viewer.batch_tuples_mean", ratio(tr.batchTuples, tr.batches), "tuples")
	put("netscope.catchup.backfill_tuples_per_join", medianOr0(tr.bfTuples), "tuples")

	// tuple
	for _, name := range []string{"tuple.text_parse_ns_per_tuple", "tuple.v3_encode_ns_per_tuple",
		"tuple.v3_decode_ns_per_tuple", "tuple.json_encode_ns_per_tuple"} {
		put(name, 0, "ns")
	}
	put("tuple.v3_bytes_per_tuple", 0, "bytes")
	tr.codecs(m)

	// core
	put("core.store_catchup_p50_ms", medianOr0(cols), "ms")
	put("core.webview_us", medianOr0(tr.webviewUS), "us")

	// dgram
	put("dgram.lost", float64(tr.udpLost), "tuples")
	put("dgram.reordered", float64(tr.udpReord), "datagrams")
	put("dgram.recovered", float64(tr.udpRecov), "datagrams")
	put("dgram.resent", float64(tr.udpResent), "datagrams")

	// webscope
	gor := 0.0
	if b.w.web {
		gor = medianOr0(tr.goroutines)
	}
	put("webscope.dropped", float64(tr.webDropped), "events")
	put("webscope.bytes_per_tuple", ratio(tr.webBytes, tr.webTuples), "bytes")
	put("webscope.goroutines_per_client", gor, "goroutines")

	// reclog
	put("reclog.dropped", float64(tr.rlDropped), "tuples")
	put("reclog.written_bytes_per_tuple", ratio(tr.rlBytes, tr.rlWritten), "bytes")
	put("reclog.replay_ns_per_tuple", medianOr0(tr.replayNS), "ns")
	put("reclog.flush_p50_ms", medianOr0(tr.flushes), "ms")

	// runtime and generator health
	put("runtime.alloc_bytes_per_tuple", tr.rtAlloc/float64(max(tr.tuples, 1)), "bytes")
	put("runtime.gc_cycles", tr.rtGC, "count")
	sort.Float64s(tr.late)
	sort.Float64s(tr.lat)
	put("gen.late_p99_ms", quantile(tr.late, 0.99), "ms")
	put("delivery_p99_ms", quantile(tr.lat, 0.99), "ms")
	put("delivery_p999_ms", quantile(tr.lat, 0.999), "ms")
	put("trace.overhead_delivery_p50_ms", quantile(tr.lat, 0.5)-quantile(tr.baseLat, 0.5), "ms")
	put("trace.overhead_cpu_ns_per_tuple", avg(tr.cpus)-tr.baseCPU, "ns")
	return m
}

// replayNS times Replayer.Run over the joins' window of the span.
func replayNS(dir string) float64 {
	sess, err := reclog.OpenSession(dir)
	if err != nil {
		return 0
	}
	rep := reclog.NewReplayer(sess)
	rep.SetSpeed(0)
	rep.SetWindow(spanSince(sinceWindows[1]), spanSince(spanMS))
	t0 := nanotime()
	if rep.Run(func([]tuple.Tuple) error { return nil }) != nil || rep.Delivered() == 0 {
		return 0
	}
	return float64(nanotime()-t0) / float64(rep.Delivered())
}
