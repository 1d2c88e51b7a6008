package webscope

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/netscope"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

// namedEvent is one stream event as a browser sees it.
type namedEvent struct{ name, data string }

// refEvents is the reference for the JSON lanes, the route through text:
// it decodes a TCP subscriber's text stream with a StreamDecoder — tuple
// lines re-parsed and batched, control lines turned into
// param/error/control events — and renders the events with
// tuple.AppendJSONBatch.
func refEvents(stream []byte) ([]namedEvent, error) {
	var evs []namedEvent
	var batch []tuple.Tuple
	flush := func() {
		if len(batch) > 0 {
			evs = append(evs, namedEvent{"batch", string(tuple.AppendJSONBatch(nil, batch))})
			batch = batch[:0]
		}
	}
	line := func(l string) {
		if !tuple.IsComment(l) {
			if t, err := tuple.Parse(l); err == nil {
				batch = append(batch, t)
			}
			return
		}
		cf, ok := tuple.ParseControl(l)
		if !ok {
			return
		}
		flush()
		var data []byte
		switch cf.Verb {
		case "param", "param-ok":
			v, err := strconv.ParseFloat(cf.Arg(1), 64)
			if err != nil {
				return
			}
			data = append(data, `{"name":`...)
			data = tuple.AppendJSONString(data, cf.Arg(0))
			data = append(data, `,"value":`...)
			data = tuple.AppendJSONValue(data, v)
			evs = append(evs, namedEvent{"param", string(append(data, '}'))})
		case "error":
			data = append(data, `{"error":`...)
			data = tuple.AppendJSONString(data, strings.Join(cf.Fields, " "))
			evs = append(evs, namedEvent{"error", string(append(data, '}'))})
		default:
			data = append(data, `{"verb":`...)
			data = tuple.AppendJSONString(data, cf.Verb)
			data = append(data, `,"fields":[`...)
			for i, f := range cf.Fields {
				if i > 0 {
					data = append(data, ',')
				}
				data = tuple.AppendJSONString(data, f)
			}
			evs = append(evs, namedEvent{"control", string(append(data, `]}`...))})
		}
	}
	err := tuple.NewStreamDecoder().Feed(stream, line, func(b []tuple.Tuple) { batch = append(batch, b...) })
	flush()
	return evs, err
}

// mergeBatches joins runs of consecutive batch events into one: how a
// stream's tuples are cut into events is a transport detail (a reader of
// the text stream cuts at its read boundaries), their sequence is not.
func mergeBatches(evs []namedEvent) []namedEvent {
	var out []namedEvent
	for _, ev := range evs {
		if n := len(out); ev.name == "batch" && n > 0 && out[n-1].name == "batch" {
			prev, cur := out[n-1].data, ev.data
			switch {
			case cur == "[]":
			case prev == "[]":
				out[n-1].data = cur
			default:
				out[n-1].data = prev[:len(prev)-1] + "," + cur[1:]
			}
			continue
		}
		out = append(out, ev)
	}
	return out
}

// parseSSE splits an SSE byte stream into events.
func parseSSE(t *testing.T, b []byte) []namedEvent {
	t.Helper()
	var evs []namedEvent
	for _, block := range strings.Split(strings.TrimSuffix(string(b), "\n\n"), "\n\n") {
		name, rest, ok := strings.Cut(block, "\n")
		if !ok || !strings.HasPrefix(name, "event: ") || !strings.HasPrefix(rest, "data: ") || strings.Contains(rest, "\n") {
			t.Fatalf("malformed SSE event %q", block)
		}
		evs = append(evs, namedEvent{strings.TrimPrefix(name, "event: "), strings.TrimPrefix(rest, "data: ")})
	}
	return evs
}

// parseWSJSON splits server frames carrying {"event":E,"data":D} text
// messages into events.
func parseWSJSON(t *testing.T, b []byte) []namedEvent {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(b))
	var evs []namedEvent
	for {
		f, err := readWSFrame(br, 1<<30, false)
		if err == io.EOF {
			return evs
		}
		if err != nil || f.opcode != opText || !f.fin {
			t.Fatalf("bad event frame (err %v, opcode %#x)", err, f.opcode)
		}
		p := string(f.payload)
		rest, ok := strings.CutPrefix(p, `{"event":"`)
		name, data, ok2 := strings.Cut(rest, `","data":`)
		if !ok || !ok2 || !strings.HasSuffix(data, "}") {
			t.Fatalf("malformed WebSocket event %q", p)
		}
		evs = append(evs, namedEvent{name, strings.TrimSuffix(data, "}")})
	}
}

// testStream is a sink stream with no HTTP side, for driving the hub
// directly: its queue is drained and framed by the test.
func testStream(g *Gateway, limit int) *stream {
	return &stream{g: g, q: newEventQueue(limit)}
}

// randomBatch draws tuples that stress the encoders: names the text
// encoding has to clean, JSON escapes, NaN/±Inf, −0, and integers beyond
// 2^53 and at the int64 edges. Stamps advance from *clock with jitter and
// the odd outlier (negative, or at the int64 edge).
func randomBatch(rng *rand.Rand, clock *int64) []tuple.Tuple {
	names := []string{"s.a", "s.b", "other", " s.lead", "s.trail ", "s.nl\nx", "\r", "",
		"s.uni·code", `s."quote"\`, "s.tab\tx", "\n s.both \r"}
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1 << 53, 1<<53 + 2, -(1 << 63), 1 << 63, 1e300, -1e-300, 0.1, 2.5}
	batch := make([]tuple.Tuple, 1+rng.Intn(40))
	for i := range batch {
		v := values[rng.Intn(len(values))]
		if rng.Intn(3) == 0 {
			v = rng.NormFloat64() * 1e6
		}
		*clock += rng.Int63n(4)
		ts := *clock
		switch rng.Intn(64) {
		case 0:
			ts = -rng.Int63n(1 << 40)
		case 1:
			ts = math.MaxInt64 - rng.Int63n(2)
		}
		batch[i] = tuple.Tuple{Time: ts, Value: v, Name: names[rng.Intn(len(names))]}
	}
	return batch
}

// TestSinkDifferentialAgainstPipe: the hub's JSON encoding, framed by the
// gateway, gives the SSE and WebSocket JSON lanes exactly the events the
// old pipe bridge produced from the hub's text stream — snapshot and
// backfill framing, filtered and decimated live batches, parameter
// notifications and error replies included.
func TestSinkDifferentialAgainstPipe(t *testing.T) {
	for i, tc := range []struct {
		name string
		req  netscope.SubscriptionRequest
	}{
		{"plain", netscope.SubscriptionRequest{}},
		{"filtered", netscope.SubscriptionRequest{Signals: []string{"s.*"}}},
		{"decimated", netscope.SubscriptionRequest{Signals: []string{"s.a", "other"}, MaxRate: 200}},
		{"backfill", netscope.SubscriptionRequest{Since: -time.Hour}},
		{"decimated-backfill", netscope.SubscriptionRequest{Since: -time.Hour, Cols: 16, Signals: []string{"s.*"}}},
	} {
		req := tc.req
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i)))
			var clock int64
			loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(0, 0)))
			srv := netscope.NewServer(loop)
			srv.SetBackfillRetention(4096)
			srv.SetSubscriberQueueLimit(1 << 20)
			delay := &core.FloatVar{}
			ps := core.NewParamSet()
			if err := ps.Add(core.FloatParam("delay-ms", delay, 0, 1000)); err != nil {
				t.Fatal(err)
			}
			srv.SetParams(ps)
			t.Cleanup(func() { srv.Close() })
			g := New(srv, Options{})

			for i := 0; i < 20; i++ {
				srv.InjectBatch(randomBatch(rng, &clock))
			}

			// The reference: a TCP-style text subscriber on a pipe.
			hubEnd, peer := net.Pipe()
			var ref bytes.Buffer
			var refMu sync.Mutex
			refDone := make(chan struct{})
			go func() {
				defer close(refDone)
				buf := make([]byte, 4096)
				for {
					n, err := peer.Read(buf)
					refMu.Lock()
					ref.Write(buf[:n])
					refMu.Unlock()
					if err != nil {
						return
					}
				}
			}()
			if err := srv.SubscribeWith(hubEnd, req); err != nil {
				t.Fatal(err)
			}
			st := testStream(g, 1<<20)
			h, err := srv.SubscribeSink(st, req)
			if err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 200; i++ {
				srv.InjectBatch(randomBatch(rng, &clock))
				if i%50 == 0 {
					ps.Set("delay-ms", float64(i)) //nolint:errcheck // in range
					loop.Iterate()                 // run the change notification
				}
			}
			// An error reply closes both streams.
			const bad = "no  such\tcommand"
			h.Command(bad)
			go peer.Write([]byte(bad + "\n")) //nolint:errcheck // the hub reads it
			testutil.PumpUntil(t, "pipe error reply", func() { loop.Iterate() }, func() bool {
				refMu.Lock()
				defer refMu.Unlock()
				return bytes.Contains(ref.Bytes(), []byte("# error"))
			})
			testutil.WaitUntil(t, "pipe flushed", 10*time.Second, srv.SubscribersFlushed)
			hubEnd.Close()
			<-refDone

			want, err := refEvents(ref.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			want = mergeBatches(want)
			tuples := 0
			for _, w := range want {
				if w.name == "batch" {
					tuples += strings.Count(w.data, "],[") + 1
				}
			}
			if tuples < 40 {
				t.Fatalf("the reference carries only %d tuples", tuples)
			}
			h.Cancel()
			evs, _ := st.q.take(nil)
			frameAll := func(frame func([]byte, string, []byte) []byte) []byte {
				st.frame = frame
				var out []byte
				for _, ev := range evs {
					out = st.appendEvent(out, ev)
				}
				return out
			}
			gotSSE := mergeBatches(parseSSE(t, frameAll(appendSSEEvent)))
			gotWS := mergeBatches(parseWSJSON(t, frameAll(appendWSJSONEvent)))
			for lane, got := range map[string][]namedEvent{"sse": gotSSE, "ws": gotWS} {
				if len(got) != len(want) {
					t.Fatalf("%s: %d events, reference %d", lane, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s event %d = %q %s\nreference       %q %s", lane, i, got[i].name, got[i].data, want[i].name, want[i].data)
					}
				}
			}
		})
	}
}

// TestBatchEventsBounded: however large a batch or a backfill, every
// batch event's payload stays within 32 KiB plus one tuple, and the
// events together carry every tuple in order — the bound a browser (or a
// line-buffered SSE reader) relies on.
func TestBatchEventsBounded(t *testing.T) {
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(0, 0)))
	srv := netscope.NewServer(loop)
	srv.SetBackfillRetention(1 << 16)
	t.Cleanup(func() { srv.Close() })
	g := New(srv, Options{})

	const sigs, per = 8, 8192
	var history []tuple.Tuple
	for i := 0; i < per; i++ {
		for s := 0; s < sigs; s++ {
			history = append(history, tuple.Tuple{Time: int64(i), Value: float64(i*s) + 0.25, Name: fmt.Sprintf("sig.%d", s)})
		}
	}
	srv.InjectBatch(history)

	// A 2048-column decimated backfill, then one huge live batch.
	st := testStream(g, 1<<20)
	if _, err := srv.SubscribeSink(st, netscope.SubscriptionRequest{Since: -time.Hour, Cols: 2048}); err != nil {
		t.Fatal(err)
	}
	live := make([]tuple.Tuple, 30000)
	for i := range live {
		live[i] = tuple.Tuple{Time: int64(per + i), Value: float64(i) / 7, Name: fmt.Sprintf("sig.%d", i%sigs)}
	}
	srv.InjectBatch(live)

	evs, _ := st.q.take(nil)
	st.frame = appendSSEEvent
	var stream []byte
	for _, ev := range evs {
		stream = st.appendEvent(stream, ev)
	}
	maxTuple := len(`[9223372036854775807,-1.2345678901234567e-300,"sig.7"],`)
	var backfill, delivered, batches int
	inBackfill := false
	for _, ev := range parseSSE(t, stream) {
		switch {
		case ev.name == "control" && strings.Contains(ev.data, `"backfill"`):
			inBackfill = true
		case ev.name == "control" && strings.Contains(ev.data, `"backfill-end"`):
			inBackfill = false
		case ev.name == "batch":
			batches++
			if len(ev.data) > 32<<10+maxTuple {
				t.Fatalf("batch event %d carries %d bytes, bound %d", batches, len(ev.data), 32<<10+maxTuple)
			}
			n := len(decodeBatch(t, ev.data))
			if inBackfill {
				backfill += n
			} else {
				delivered += n
			}
		}
	}
	if backfill < 2*2048 || delivered != len(live) || batches < 10 {
		t.Fatalf("backfill %d tuples, live %d of %d, in %d batch events", backfill, delivered, len(live), batches)
	}
}

// gatewayGoroutines counts live goroutines running gateway code; test
// helpers (and the counting goroutine) are excluded.
func gatewayGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "/internal/webscope/") && !strings.Contains(g, "_test.go") {
			count++
		}
	}
	return count
}

// TestStreamGoroutinesPerClient: an SSE stream runs on its handler
// goroutine alone (it is the writer); a WebSocket stream adds only its
// frame reader.
func TestStreamGoroutinesPerClient(t *testing.T) {
	r := newRig(t, Options{}, nil)
	base := gatewayGoroutines()
	const n = 3
	settled := func(what string, want int) {
		t.Helper()
		if !testutil.Poll(5*time.Second, func() bool { return gatewayGoroutines()-base == want }) {
			t.Fatalf("%s: %d gateway goroutines, want %d", what, gatewayGoroutines()-base, want)
		}
	}
	for i := 0; i < n; i++ {
		openSSE(t, r, "").nextNamed(t, "hello")
	}
	settled("SSE clients", n)
	for i := 0; i < n; i++ {
		dialWS(t, r.host, "/v1/ws").expectEvent(t, "hello")
	}
	settled("SSE and WebSocket clients", n+2*n)
}

// smallBufListener shrinks each accepted connection's kernel send buffer,
// so a browser that stops reading stalls the gateway's writes after a few
// KiB rather than megabytes.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096) //nolint:errcheck // best effort; the test checks drops happened
	}
	return c, err
}

// stallRig is a gateway served over smallBufListener, with a running
// loop, for driving browsers that stop reading.
type stallRig struct {
	srv  *netscope.Server
	g    *Gateway
	addr string
	loop *glib.Loop
}

func newStallRig(t *testing.T) *stallRig {
	t.Helper()
	loop := glib.NewLoop(glib.RealClock{})
	srv := netscope.NewServer(loop)
	srv.SetSnapshotWindow(0)
	g := New(srv, Options{QueueLimit: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: g}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(smallBufListener{ln}) //nolint:errcheck // ends at Close
	}()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loop.Run() //nolint:errcheck
	}()
	t.Cleanup(func() {
		g.Close()
		hs.Close()
		<-served
		loop.Quit()
		<-loopDone
		srv.Close()
	})
	return &stallRig{srv: srv, g: g, addr: ln.Addr().String(), loop: loop}
}

func (r *stallRig) onLoop(fn func()) {
	done := make(chan struct{})
	r.loop.Invoke(func() { fn(); close(done) })
	<-done
}

func (r *stallRig) stats() (st netscope.FanoutStats) {
	r.onLoop(func() { st = r.srv.FanoutStats() })
	return st
}

// flood injects k single-tuple batches (one event each) and fails the
// test unless the stalled client has started losing events.
func (r *stallRig) flood(t *testing.T, k int) {
	t.Helper()
	name := "sig." + strings.Repeat("x", 100)
	for i := 0; i < k; i++ {
		r.onLoop(func() { r.srv.InjectBatch([]tuple.Tuple{{Time: int64(i), Value: 1, Name: name}}) })
	}
	if r.stats().WebDropped == 0 {
		t.Fatal("a stalled browser dropped nothing")
	}
}

// TestStalledBrowserDropsCountedOnce: a browser that stops reading loses
// its own oldest events; every lost event is counted exactly once, in
// FanoutStats.WebDropped — never in the hub's Dropped, and not again when
// the stream ends.
func TestStalledBrowserDropsCountedOnce(t *testing.T) {
	r := newStallRig(t)
	conn, err := net.Dial("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096) //nolint:errcheck // best effort
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: test\r\n\r\n")
	testutil.WaitUntil(t, "stream client", 10*time.Second, func() bool { return r.srv.Web().Clients() == 1 })
	const k = 20000
	r.flood(t, k)
	stalled := r.stats()

	// Now read: drop-oldest keeps the newest, so the last tuple arrives.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := bufio.NewReader(resp.Body)
	received := 0
	for last := int64(-1); last != k-1; {
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d tuples: %v", received, err)
		}
		if data, ok := strings.CutPrefix(line, "data: [["); ok {
			ts, _, _ := strings.Cut(data, ",")
			if last, err = strconv.ParseInt(ts, 10, 64); err != nil {
				t.Fatalf("batch %q: %v", line, err)
			}
			received++
		}
	}
	st := r.stats()
	if st.WebDropped != stalled.WebDropped || st.WebDropped != int64(k-received) {
		t.Fatalf("WebDropped = %d (stalled %d), but %d of %d events never arrived", st.WebDropped, stalled.WebDropped, k-received, k)
	}
	if st.Dropped != 0 {
		t.Fatalf("hub Dropped = %d: web drops counted twice", st.Dropped)
	}
	conn.Close()
	testutil.WaitUntil(t, "stream release", 10*time.Second, func() bool { return r.srv.Web().Clients() == 0 })
	if end := r.stats(); end.WebDropped != st.WebDropped || end.Dropped != 0 {
		t.Fatalf("after release: WebDropped %d → %d, Dropped %d", st.WebDropped, end.WebDropped, end.Dropped)
	}
}

// TestGatewayCloseUnblocksStalledWebSocket: Gateway.Close does not wait
// out the write timeout of a WebSocket whose browser stopped reading — it
// closes the connection under the stalled write.
func TestGatewayCloseUnblocksStalledWebSocket(t *testing.T) {
	r := newStallRig(t)
	ws := dialWS(t, r.addr, "/v1/ws")
	ws.c.(*net.TCPConn).SetReadBuffer(4096) //nolint:errcheck // best effort
	r.flood(t, 20000)
	start := time.Now()
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > writeTimeout/2 {
		t.Fatalf("Gateway.Close took %v behind a stalled WebSocket write", d)
	}
}
