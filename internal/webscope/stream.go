package webscope

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/netscope"
	"repro/internal/tuple"
)

// The live-stream lanes. Each browser client is the netscope.Sink of an
// in-process hub subscription (Server.SubscribeSink): filtering,
// decimation, snapshot/backfill and one encoding per filter signature are
// the hub's own machinery, and the hub pushes finished JSON (or v3)
// chunks and control frames into the client's bounded drop-oldest
// eventQueue on its loop goroutine. The handler goroutine frames and
// writes — a stalled tab drops its own oldest events and never blocks the
// hub or anyone else. A stream costs that queue, its writer and, for
// WebSocket, a frame reader.
//
// Stream events (SSE `event:`/`data:` pairs; WebSocket text messages
// `{"event":E,"data":D}`):
//
//	hello   {"proto":2,"format":...,...}     gateway ack, applied request
//	batch   [[timeMS,value,"name"],...]      tuples (snapshot, backfill, live)
//	param   {"name":N,"value":V}             parameter change or reply
//	control {"verb":V,"fields":[...]}        any other hub control frame
//	error   {"error":MSG}                    hub-reported error
//
// A batch payload holds at most 32 KiB plus one tuple; larger batches
// arrive as consecutive batch events. format=binary (WebSocket only)
// replaces all of the above after hello with binary messages carrying the
// hub's v3 frame stream, control frames as their '#' text lines — decode
// with tuple.StreamDecoder semantics (docs/WIRE.md).

var (
	errShutdown       = errors.New("webscope: gateway shutting down")
	errTooManyClients = errors.New("webscope: too many stream clients")
	errPeerClosed     = errors.New("webscope: peer sent close")
)

const (
	// writeTimeout bounds one browser write; a tab stalled longer than
	// this is disconnected (and Gateway.Close is never stuck behind it
	// for more than one timeout).
	writeTimeout = 10 * time.Second
	// maxWrite bounds one coalesced browser write; the writer's framing
	// buffer stays near it, and one that a huge event grew past four
	// times that is dropped after use.
	maxWrite = 64 << 10
)

// stream is one live SSE or WebSocket client: the sink of a hub
// subscription.
type stream struct {
	g      *Gateway
	q      *eventQueue
	h      *netscope.SinkSubscription
	binary bool // the WebSocket v3 lane
	// frame renders one JSON event in the lane's framing into dst.
	frame func(dst []byte, event string, data []byte) []byte
	// scratch is the writer's event-payload buffer.
	scratch []byte
	// conn is the hijacked WebSocket connection once the handshake is
	// done; shutdown closes it so a write stalled on a dead tab fails now.
	conn atomic.Pointer[net.Conn]
}

// openStream registers a stream client framing JSON events with frame,
// queues its hello and subscribes it to the hub. goroutines is how many
// stream goroutines the caller will run (each must call g.wg.Done). On
// error nothing is registered.
func (g *Gateway) openStream(req netscope.SubscriptionRequest, format string, frame func([]byte, string, []byte) []byte, goroutines int) (*stream, error) {
	st := &stream{g: g, q: newEventQueue(g.opts.QueueLimit), binary: format == "binary", frame: frame}
	if err := g.addStream(st, goroutines); err != nil {
		return nil, err
	}
	st.push(event{kind: evRaw, data: frame(nil, "hello", helloData(nil, req, format)), protected: true})
	var serr error
	if !g.invoke(func() { st.h, serr = g.srv.SubscribeSink(st, req) }) {
		serr = errShutdown
	}
	if serr != nil {
		st.q.close()
		g.dropStream(st)
		g.wg.Add(-goroutines)
		return nil, serr
	}
	g.web.StreamOpen()
	return st, nil
}

// shutdown ends the stream from any goroutine, idempotently: closing the
// queue wakes an idle writer, closing a WebSocket connection fails a
// stalled write.
func (st *stream) shutdown() {
	st.q.close()
	if c := st.conn.Load(); c != nil {
		(*c).Close()
	}
}

// release finishes a stream: it ends the hub subscription and leaves the
// registry. Called once, by the handler goroutine, after its writer
// returned.
func (st *stream) release() {
	st.shutdown()
	select {
	case <-st.g.stop:
		// The loop may be gone; Server.Close drops the subscription.
	default:
		st.g.srv.Loop().Invoke(st.h.Cancel)
	}
	st.g.web.StreamClose()
	st.g.dropStream(st)
}

// push queues one event, counting what drop-oldest discards — the only
// place a web event is ever dropped, so WebDropped counts each drop once.
func (st *stream) push(ev event) {
	if n := st.q.push(ev); n > 0 {
		st.g.web.AddDropped(int64(n))
	}
}

// Open, Send and Control make the stream a netscope.Sink; the hub calls
// them on its loop goroutine.

// Open queues the subscription's opening unit, exempt from drop-oldest.
func (st *stream) Open(parts []netscope.Part) {
	for _, p := range parts {
		if p.Tuples != nil {
			st.push(event{kind: evTuples, data: p.Tuples, protected: true})
		} else {
			st.push(event{kind: evControl, frame: p.Frame, protected: true})
		}
	}
}

// Send queues one chunk of tuples.
func (st *stream) Send(chunk []byte) { st.push(event{kind: evTuples, data: chunk}) }

// Control queues control frames.
func (st *stream) Control(frames ...tuple.ControlFrame) {
	for _, f := range frames {
		st.push(event{kind: evControl, frame: f})
	}
}

// writeLoop frames and writes queued events until the queue closes or a
// write fails; events queued together go out in writes of about maxWrite
// bytes. Runs on the handler goroutine.
func (st *stream) writeLoop(write func([]byte) error) {
	var evs []event
	var buf []byte
	for {
		var ok bool
		if evs, ok = st.q.take(evs[:0]); !ok {
			return
		}
		for i := range evs {
			buf = st.appendEvent(buf, evs[i])
			evs[i] = event{} // release the hub's chunk
			if len(buf) < maxWrite && i < len(evs)-1 {
				continue
			}
			err := write(buf)
			st.g.web.AddBytes(int64(len(buf)))
			if err != nil {
				st.shutdown()
				return
			}
			if buf = buf[:0]; cap(buf) > 4*maxWrite {
				buf = nil
			}
		}
	}
}

// appendEvent frames one event for the stream's lane.
func (st *stream) appendEvent(dst []byte, ev event) []byte {
	switch {
	case ev.kind == evRaw:
		return append(dst, ev.data...)
	case st.binary && ev.kind == evControl:
		// Control frames keep their text form inside the v3 stream.
		st.scratch = tuple.AppendControl(st.scratch[:0], ev.frame.Verb, ev.frame.Fields...)
		return appendWSFrame(dst, opBinary, st.scratch)
	case st.binary:
		return appendWSFrame(dst, opBinary, ev.data)
	case ev.kind == evTuples:
		return st.frame(dst, "batch", ev.data)
	}
	var name string
	name, st.scratch = controlEvent(st.scratch[:0], ev.frame)
	if name == "" {
		return dst
	}
	return st.frame(dst, name, st.scratch)
}

// controlEvent renders a hub control frame as a JSON event payload into
// dst: param notifications and replies become param events, error frames
// error events, anything else a generic control event. An unrenderable
// param frame yields name "".
func controlEvent(dst []byte, f tuple.ControlFrame) (name string, data []byte) {
	switch f.Verb {
	case "param", "param-ok":
		v, err := strconv.ParseFloat(f.Arg(1), 64)
		if err != nil {
			return "", dst
		}
		dst = append(dst, `{"name":`...)
		dst = tuple.AppendJSONString(dst, f.Arg(0))
		dst = append(dst, `,"value":`...)
		dst = tuple.AppendJSONValue(dst, v)
		return "param", append(dst, '}')
	case "error":
		dst = append(dst, `{"error":`...)
		dst = tuple.AppendJSONString(dst, strings.Join(f.Fields, " "))
		return "error", append(dst, '}')
	}
	dst = append(dst, `{"verb":`...)
	dst = tuple.AppendJSONString(dst, f.Verb)
	dst = append(dst, `,"fields":[`...)
	for i, fld := range f.Fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = tuple.AppendJSONString(dst, fld)
	}
	return "control", append(dst, `]}`...)
}

// --- Query-parameter mapping ------------------------------------------------

// streamRequest maps /v1/stream and /v1/ws query parameters onto a v2
// SubscriptionRequest (the table in docs/HTTP.md):
//
//	signals=a,b.*   → Signals (comma-separated patterns, may repeat)
//	max-rate=30     → MaxRate (tuples/sec per signal)
//	since=-10000    → Since (ms; negative = trailing window; or a Go
//	                  duration like "-10s")
//	cols=512        → Cols (decimated backfill resolution)
//	stream=0        → NoStream (control plane only)
//
// format selects the payload framing: "json" (default) or "binary"
// (WebSocket only; sets Wire=3).
func streamRequest(q url.Values) (netscope.SubscriptionRequest, string, error) {
	var req netscope.SubscriptionRequest
	for _, v := range q["signals"] {
		for _, p := range strings.Split(v, ",") {
			if p != "" {
				req.Signals = append(req.Signals, p)
			}
		}
	}
	if s := q.Get("max-rate"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return req, "", errors.New("bad max-rate: " + s)
		}
		req.MaxRate = f
	}
	if s := q.Get("since"); s != "" {
		d, err := parseSinceMS(s)
		if err != nil {
			return req, "", err
		}
		req.Since = d
	}
	if s := q.Get("cols"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			return req, "", errors.New("bad cols: " + s)
		}
		req.Cols = n
	}
	if s := q.Get("stream"); s == "0" || s == "false" {
		req.NoStream = true
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	if err := req.Validate(); err != nil {
		return req, "", err
	}
	return req, format, nil
}

// parseSinceMS accepts milliseconds ("-10000") or a Go duration ("-10s").
func parseSinceMS(s string) (time.Duration, error) {
	if ms, err := strconv.ParseInt(s, 10, 64); err == nil {
		return time.Duration(ms) * time.Millisecond, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	return 0, errors.New("bad since (want ms or duration): " + s)
}

// helloData renders the hello event payload: the applied request.
func helloData(dst []byte, req netscope.SubscriptionRequest, format string) []byte {
	dst = append(dst, `{"proto":2,"format":"`...)
	dst = append(dst, format...)
	dst = append(dst, `","signals":[`...)
	for i, s := range req.Signals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = tuple.AppendJSONString(dst, s)
	}
	dst = append(dst, `],"maxRate":`...)
	dst = tuple.AppendJSONValue(dst, req.MaxRate)
	dst = append(dst, `,"sinceMS":`...)
	dst = strconv.AppendInt(dst, req.Since.Milliseconds(), 10)
	dst = append(dst, `,"cols":`...)
	dst = strconv.AppendInt(dst, int64(req.Cols), 10)
	dst = append(dst, `,"stream":`...)
	dst = strconv.AppendBool(dst, !req.NoStream)
	return append(dst, '}')
}

// --- SSE ---------------------------------------------------------------------

// appendSSEEvent renders one Server-Sent Event. data must be
// newline-free, which the JSON encoders guarantee.
//
//gscope:hotpath
func appendSSEEvent(dst []byte, event string, data []byte) []byte {
	dst = append(dst, "event: "...)
	dst = append(dst, event...)
	dst = append(dst, "\ndata: "...)
	dst = append(dst, data...)
	return append(dst, '\n', '\n')
}

// handleSSE serves GET /v1/stream: a live JSON event stream.
func (g *Gateway) handleSSE(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "stream requires GET")
		return
	}
	req, format, err := streamRequest(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if format != "json" {
		httpError(w, http.StatusBadRequest, "SSE supports format=json only (binary needs /v1/ws)")
		return
	}
	st, err := g.openStream(req, format, appendSSEEvent, 1) // this goroutine writes
	if err != nil {
		httpError(w, streamErrCode(err), err.Error())
		return
	}
	defer g.wg.Done()
	// A browser disconnect must end the stream even while the hub is idle
	// and no write would fail.
	defer context.AfterFunc(r.Context(), st.shutdown)()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	st.writeLoop(func(b []byte) error {
		rc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck // unsupported writers just lack the stall bound
		if _, err := w.Write(b); err != nil {
			return err
		}
		return rc.Flush()
	})
	st.release()
}

// --- WebSocket ---------------------------------------------------------------

// appendWSJSONEvent renders one event as a WebSocket text message
// {"event":E,"data":D}.
//
//gscope:hotpath
func appendWSJSONEvent(dst []byte, event string, data []byte) []byte {
	n := len(`{"event":"`) + len(event) + len(`","data":`) + len(data) + 1
	dst = appendWSHeader(dst, opText, n)
	dst = append(dst, `{"event":"`...)
	dst = append(dst, event...)
	dst = append(dst, `","data":`...)
	dst = append(dst, data...)
	return append(dst, '}')
}

// handleWS serves GET /v1/ws: the WebSocket lane. Text messages carry
// the same events as SSE; with format=binary the payload is the hub's
// v3 byte stream. Inbound text messages are v2 command lines ("param
// set delay-ms 80") run by the hub on its loop; replies come back as
// param/error events.
func (g *Gateway) handleWS(w http.ResponseWriter, r *http.Request) {
	req, format, err := streamRequest(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if format != "json" && format != "binary" {
		httpError(w, http.StatusBadRequest, "format must be json or binary")
		return
	}
	if format == "binary" {
		req.Wire = 3
	}
	st, err := g.openStream(req, format, appendWSJSONEvent, 2) // this goroutine writes, one reads frames
	if err != nil {
		httpError(w, streamErrCode(err), err.Error())
		return
	}
	defer g.wg.Done()
	conn, br, err := wsAccept(w, r)
	if err != nil {
		// wsAccept already wrote the HTTP error (or the conn died).
		g.wg.Done() // the frame reader never starts
		st.release()
		return
	}
	st.conn.Store(&conn)
	go func() {
		defer g.wg.Done()
		st.readFrames(br)
		// The peer closed (or broke protocol): the close echo is already
		// queued. Refuse further events and let the writer drain it
		// before the connection drops. Gateway.Close preempts the drain
		// by closing the queue outright.
		st.q.finish()
	}()
	st.writeLoop(func(b []byte) error {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck // net.Conn deadline
		_, err := conn.Write(b)
		return err
	})
	conn.Close() // unblocks the frame reader
	st.release()
}

// readFrames is the WebSocket inbound loop: answers pings, honors close,
// and hands text messages to the hub as command lines.
func (st *stream) readFrames(br *bufio.Reader) {
	ctrl := func(op byte, payload []byte) error {
		switch op {
		case opPing:
			st.push(event{kind: evRaw, data: appendWSFrame(nil, opPong, payload), protected: true})
		case opClose:
			code := closeNormal
			if len(payload) >= 2 {
				code = int(payload[0])<<8 | int(payload[1])
			}
			st.push(event{kind: evRaw, data: appendWSClose(nil, code, ""), protected: true})
			return errPeerClosed
		}
		return nil
	}
	for {
		op, msg, err := readWSMessage(br, true, ctrl)
		if err != nil {
			if errors.Is(err, errWSProtocol) || errors.Is(err, errWSTooBig) {
				code := closeProtocolError
				if errors.Is(err, errWSTooBig) {
					code = closeTooBig
				}
				st.push(event{kind: evRaw, data: appendWSClose(nil, code, ""), protected: true})
			}
			return
		}
		if op != opText {
			continue
		}
		line := strings.TrimRight(string(msg), "\r\n")
		if line == "" || strings.ContainsAny(line, "\n\r") {
			continue
		}
		// The hub's command plane; the reply comes back down the stream
		// as a param/error event.
		if !st.g.invoke(func() { st.h.Command(line) }) {
			return
		}
	}
}

// streamErrCode maps openStream failures onto HTTP statuses.
func streamErrCode(err error) int {
	if errors.Is(err, errTooManyClients) || errors.Is(err, errShutdown) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
