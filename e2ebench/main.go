// Command e2ebench drives the gscope pipeline end to end — publisher →
// hub → viewer over loopback sockets, composed the way gscoped composes
// it — and prints every end-to-end metric by name, with its unit. With
// -trace 1 it prints the per-layer metrics instead, timed from outside
// through the layers' public functions and hooks. See README.md.
//
//	bash e2ebench/run.sh --workload tcp-live --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix. The rates are constants, fixed from one
// capacity measurement on the reference machine (README.md).
type workload struct {
	name       string
	light      float64 // tuples/s while latency is measured
	heavy      float64 // tuples/s while CPU cost is measured
	burst      int64   // tuples per drain burst
	window     int64   // drain: most tuples offered but not yet decoded
	joinRounds int     // join rounds per 10 s of run
	udp        bool    // UDP datagram publisher (else TCP)
	web        bool    // SSE viewer through the web gateway (else v3 TCP)
	record     bool    // flight recorder on, history span recorded at set-up
	filter     string  // the viewer's signal filter, "" for all
}

var workloads = []*workload{
	{name: "tcp-live", light: 240000, heavy: 1060000, burst: 1 << 18, window: 1 << 15, joinRounds: 40},
	{name: "udp-web", light: 40000, heavy: 300000, burst: 1 << 16, window: 1 << 11, joinRounds: 40, udp: true, web: true, filter: "sig.0[0-7]"},
	{name: "record-catchup", light: 170000, heavy: 780000, burst: 1 << 18, window: 1 << 15, joinRounds: 8, record: true},
}

const (
	setups      = 3                // set-ups per round; setup_s is the median of all
	maxBatch    = 4096             // most tuples per SendBatch
	drainBatch  = 1024             // tuples per SendBatch in a drain burst
	tick        = time.Millisecond // the paced phases send one batch per tick
	traceEvery  = 8                // traced run: stamp 1 in traceEvery samples per signal
	trailing    = -time.Minute     // trailing joins: the tiered store's whole retention
	catchupCols = 2048             // columns a decimated join asks for
	warmup      = 1 << 16          // tuples pushed through each set-up before it counts as done
	waitLong    = 10 * time.Second
	waitSettle  = 2 * time.Second
	rounds      = 10                    // whole pipeline lives per run
	joinEvery   = 30 * time.Millisecond // record-catchup: a join starts on this schedule
)

// sinceWindows are record-catchup's joins: ms offsets into the history
// span. An odd count puts the median inside one window's group.
var sinceWindows = []int64{384, 128, 640}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: tcp-live, udp-web or record-catchup")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload tcp-live|udp-web|record-catchup, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	fmt.Println("# host", hostFingerprint())
	base := filepath.Join(".bench_build", "e2ebench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res, err := run(w, input{seed: *seed}, *seconds, *trace == 1, base, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// hostFingerprint names the machine a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return float64(ru.Maxrss) / 1024
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// Per-round samples can be bimodal (how a round's goroutines happen to
// share the two CPUs), which makes their median jump between the modes
// from run to run; a mean moves smoothly with the mix.

func avg(xs []float64) float64 { return trimmedMean(xs, 0) }

// trimmedMean averages xs without the lowest and highest frac of them.
func trimmedMean(xs []float64, frac float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := int(frac * float64(len(s)))
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// bench is one run's state.
type bench struct {
	w      *workload
	in     input
	r      *rig
	g      *gen
	main   *sink  // the main viewer's sink
	view   viewer // the main viewer, open until the join phase
	npass  int64  // signals passing the viewer filter
	passes [nsig]bool
	hist   map[int64][2]uint64 // since-join expectations by window

	trailingN   int64 // the first trailing join's backfill, which every one must match
	trailingSum uint64

	attempted, failed int64
	correct           bool
	log               func(format string, a ...any)
}

func (b *bench) pass(s int64) bool { return b.passes[s] }

// passing counts the live indexes below n that the viewer subscribes to.
func (b *bench) passing(n int64) int64 {
	c := n / nsig * b.npass
	for s := int64(0); s < n%nsig; s++ {
		if b.passes[s] {
			c++
		}
	}
	return c
}

// histWant returns the count and checksum a since join must backfill.
func (b *bench) histWant(sinceMS int64) (int64, uint64) {
	w, ok := b.hist[sinceMS]
	if !ok {
		n, sum := b.in.histWindow(sinceMS)
		w = [2]uint64{uint64(n), sum}
		b.hist[sinceMS] = w
	}
	return int64(w[0]), w[1]
}

// run measures the pipeline in rounds. Each round is a whole life of the
// pipeline — set-up (several times, the last rig kept), the light and
// heavy phases, the drain (traced runs only), the join phase, teardown —
// so every metric samples the whole run rather than one stretch of it;
// the rounds' samples are pooled. Flight logs go under base.
func run(w *workload, in input, seconds int, traced bool, base string, out io.Writer) (*result, error) {
	b := &bench{w: w, in: in, correct: true, hist: map[int64][2]uint64{}}
	b.log = func(format string, a ...any) { fmt.Fprintf(out, "# "+format+"\n", a...) }
	for s := int64(0); s < nsig; s++ {
		b.passes[s] = w.filter == "" || matchFilter(w.filter, liveNames[s])
		if b.passes[s] {
			b.npass++
		}
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	perRound := float64(seconds) / rounds * float64(time.Second)
	lightD := time.Duration(0.30 * perRound)
	heavyD := time.Duration(0.25 * perRound)
	bursts := 0 // drain bursts per round; only the traced run reports them

	joinRounds := max(1, (w.joinRounds*seconds+10*rounds-1)/(10*rounds))
	var tr *traceRun
	if traced {
		tr = newTraceRun(b)
		lightD /= 2
		heavyD /= 2
		bursts = max(1, seconds/10)
	}

	var setupS, lat, cpus, rates, since, cols, catchups []float64
	for round := 0; round < rounds; round++ {
		dir := filepath.Join(tmp, fmt.Sprintf("round-%d", round))
		secs, err := b.setUp(dir, tr)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, secs...)
		// A traced run repeats the light and heavy phases with its hooks
		// in; the difference from the untraced pass is the tracing
		// overhead.
		l, c, d := b.cycle(lightD, heavyD, bursts, nil)
		lat, cpus, rates = append(lat, l...), append(cpus, c), append(rates, d...)
		if tr != nil {
			tr.begin()
			l, c, _ := b.cycle(lightD, heavyD, 0, tr.tracer)
			tr.end(l, c)
		}
		b.closeMain()
		s, c2 := b.joins(joinRounds, tr)
		since, cols = append(since, s...), append(cols, c2...)
		if len(s) > 0 {
			catchups = append(catchups, median(s))
		}
		if tr != nil {
			tr.collect()
		}
		b.r.close()
		os.RemoveAll(dir)
	}
	if len(since) == 0 {
		return nil, fmt.Errorf("no join completed")
	}
	sort.Float64s(lat)
	res := &result{Correct: b.correct, Attempted: b.attempted, Failed: b.failed}
	if tr != nil {
		tr.baseLat, tr.baseCPU = lat, avg(cpus)
		res.Metrics = tr.metrics(cols)
		res.Metrics["drain_tps"] = metric{trimmedMean(rates, 0.1), "tuples/s"}
		res.Metrics["catchup_p50_ms"] = metric{avg(catchups), "ms"}
		return res, nil
	}
	res.Metrics = map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"delivery_p50_ms":  {quantile(lat, 0.50), "ms"},
		"delivery_p90_ms":  {quantile(lat, 0.90), "ms"},
		"cpu_ns_per_tuple": {avg(cpus), "ns"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"setup ms", scale(setupS, 1e3)}, {"heavy ns/tuple", cpus}, {"drain Mtuples/s", scale(rates, 1e-6)}, {"catch-up ms", since}} {
		if len(q.xs) == 0 {
			continue
		}
		sort.Float64s(q.xs)
		b.log("%s: n=%d p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f", q.name, len(q.xs), quantile(q.xs, 0.1),
			quantile(q.xs, 0.25), quantile(q.xs, 0.5), quantile(q.xs, 0.75), quantile(q.xs, 0.9))
	}
	b.log("light: %d samples; joins: %d since, %d cols; attempted %d, failed %d", len(lat), len(since), len(cols), b.attempted, b.failed)
	return res, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// setUp builds the round's rig setups times and keeps the last. It
// returns the process CPU time each set-up took, in s, from hub
// construction until a warm-up burst has crossed the pipeline. CPU time,
// not wall time: on a shared host a wall-clock burst of a few tens of ms
// stretches with whatever else the machine runs (medians of ten runs
// moved by up to 70% between sets), while the work it measures does not.
func (b *bench) setUp(dir string, tr *traceRun) ([]float64, error) {
	var secs []float64
	b.trailingN = 0
	for n := 0; n < setups; n++ {
		rdir := filepath.Join(dir, fmt.Sprintf("rec-%d", n))
		runtime.GC() // each timed stretch starts from a collected heap
		c0 := cpuNanos()
		r, err := newRig(b.w, b.in, rdir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		k := newSink(b.in, b.pass, true)
		g0 := runtime.NumGoroutine()
		v, err := r.openViewer(k, join{})
		if err == nil && !waitFor(k.ready, waitLong) {
			v.Close() //nolint:errcheck // failed set-up
			err = fmt.Errorf("viewer handshake %w", errTimeout)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		gor := float64(runtime.NumGoroutine() - g0)
		b.r, b.main, b.view, b.g = r, k, v, &gen{in: b.in, pub: r.pub}
		b.burst(warmup)
		secs = append(secs, float64(cpuNanos()-c0)/1e9)
		if n < setups-1 {
			v.Close() //nolint:errcheck // a discarded set-up
			r.close()
			os.RemoveAll(rdir)
			continue
		}
		if tr != nil {
			tr.goroutines = append(tr.goroutines, gor)
		}
	}
	return secs, nil
}
