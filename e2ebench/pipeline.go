package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/glib"
	"repro/internal/netscope"
	"repro/internal/reclog"
	"repro/internal/tuple"
	"repro/internal/webscope"
)

// rig is one hub with its publisher, composed the way gscoped composes
// it, plus the viewer side's own loop.
type rig struct {
	w       *workload
	loop    *glib.Loop
	runDone chan struct{}
	srv     *netscope.Server
	lg      *reclog.Log
	dir     string
	pub     *netscope.Client
	vloop   *glib.Loop
	vDone   chan struct{}

	subAddr, webAddr string
}

// onLoop runs fn on the hub loop and waits for it.
func (r *rig) onLoop(fn func()) {
	done := make(chan struct{})
	r.loop.Invoke(func() { fn(); close(done) })
	<-done
}

// startLoop runs a fresh glib loop on its own goroutine.
func startLoop() (*glib.Loop, chan struct{}) {
	l := glib.NewLoop(nil)
	done := make(chan struct{})
	go func() { l.Run(); close(done) }() //nolint:errcheck // a real-clock loop only returns nil
	return l, done
}

// newRig builds the hub, records the history span when the workload
// records, and dials the publisher. dir is the flight log's directory.
func newRig(w *workload, in input, dir string) (*rig, error) {
	r := &rig{w: w, dir: dir}
	r.loop, r.runDone = startLoop()
	r.vloop, r.vDone = startLoop()
	r.srv = netscope.NewServer(r.loop)
	var pubAddr, udpAddr string
	var err error
	r.onLoop(func() {
		if w.record {
			if r.lg, err = r.srv.Record(dir, reclog.Options{WireVersion: 3}); err != nil {
				return
			}
		}
		var a net.Addr
		if a, err = r.srv.Listen("127.0.0.1:0"); err != nil {
			return
		}
		pubAddr = a.String()
		if w.udp {
			if a, err = r.srv.ListenPublishersUDP("127.0.0.1:0"); err != nil {
				return
			}
			udpAddr = a.String()
		}
		if a, err = r.srv.ListenSubscribers("127.0.0.1:0"); err != nil {
			return
		}
		r.subAddr = a.String()
		r.srv.SetBackfillRetention(0)
		if w.web {
			if a, err = r.srv.ListenWeb("127.0.0.1:0", webscope.New(r.srv, webscope.Options{})); err != nil {
				return
			}
			r.webAddr = a.String()
		}
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if w.record {
		const chunk = 4096
		for j := int64(0); j < spanTuples; j += chunk {
			b := make([]tuple.Tuple, chunk)
			for x := range b {
				b[x] = in.hist(j + int64(x))
			}
			r.onLoop(func() { r.srv.InjectBatch(b) })
		}
		if err := r.lg.Flush(); err != nil {
			r.close()
			return nil, fmt.Errorf("flush history span: %w", err)
		}
	}
	if w.udp {
		r.pub, err = netscope.DialUDP(udpAddr)
	} else if r.pub, err = netscope.Dial(pubAddr); err == nil && w.record {
		err = r.pub.SetWireVersion(3)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close tears the rig down the way gscoped does: publisher first, then
// the loop, then the server.
func (r *rig) close() {
	if r.pub != nil {
		r.pub.Close() //nolint:errcheck // teardown; delivery was checked already
	}
	r.loop.Quit()
	<-r.runDone
	r.srv.Close() //nolint:errcheck // teardown
	r.vloop.Quit()
	<-r.vDone
}

// viewer is one open viewer connection.
type viewer interface{ Close() error }

// join describes a viewer's subscription beyond the workload's default.
type join struct {
	since   time.Duration // 0: live only; negative: trailing; positive: absolute stream ms
	cols    int
	signals string // a glob; "" takes the workload's default
}

// openViewer connects one viewer of the workload's kind feeding k.
func (r *rig) openViewer(k *sink, j join) (viewer, error) {
	if r.w.web {
		return openSSE(r.webAddr, k, j, r.w.filter)
	}
	opts := []netscope.SubscribeOption{netscope.WithWireVersion(3)}
	if j.signals != "" {
		opts = append(opts, netscope.WithSignals(j.signals))
	}
	if j.since != 0 {
		opts = append(opts, netscope.WithSince(j.since))
	}
	if j.cols > 0 {
		opts = append(opts, netscope.WithResolution(j.cols))
	}
	var sub *netscope.Subscriber
	var err error
	done := make(chan struct{})
	// Subscribing on the viewer loop registers the control hook before
	// any frame can be dispatched.
	r.vloop.Invoke(func() {
		defer close(done)
		sub, err = netscope.SubscribeToBatch(r.vloop, r.subAddr, k.batch, opts...)
		if err == nil {
			sub.OnControl(func(f tuple.ControlFrame) { k.control(f.Verb) })
		}
	})
	<-done
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// sseViewer reads /v1/stream as a browser would.
type sseViewer struct {
	resp *http.Response
	done chan struct{}
}

var sseClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func openSSE(addr string, k *sink, j join, filter string) (*sseViewer, error) {
	q := url.Values{"format": {"json"}}
	switch {
	case j.signals != "":
		q.Set("signals", j.signals)
	case filter != "":
		q.Set("signals", filter)
	}
	if j.since != 0 {
		q.Set("since", strconv.FormatInt(j.since.Milliseconds(), 10))
	}
	if j.cols > 0 {
		q.Set("cols", strconv.Itoa(j.cols))
	}
	resp, err := sseClient.Get("http://" + addr + "/v1/stream?" + q.Encode())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("sse: %s", resp.Status)
	}
	v := &sseViewer{resp: resp, done: make(chan struct{})}
	go v.read(k)
	return v, nil
}

func (v *sseViewer) read(k *sink) {
	defer close(v.done)
	br := bufio.NewReaderSize(v.resp.Body, 64<<10)
	var event string
	var batch []tuple.Tuple
	names := map[string]string{}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch event {
			case "batch":
				var ok bool
				if batch, ok = parseJSONBatch(data, batch[:0], names); !ok {
					k.mu.Lock()
					k.corrupt++
					k.mu.Unlock()
					continue
				}
				k.batch(batch)
			case "control":
				if verb, ok := controlVerb(data); ok {
					k.control(verb)
				}
			}
		}
	}
}

func (v *sseViewer) Close() error {
	err := v.resp.Body.Close()
	<-v.done
	return err
}

// controlVerb extracts V from {"verb":"V",...}.
func controlVerb(data []byte) (string, bool) {
	const key = `{"verb":"`
	if !bytes.HasPrefix(data, []byte(key)) {
		return "", false
	}
	rest := data[len(key):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", false
	}
	return string(rest[:end]), true
}

// parseJSONBatch decodes the gateway's [[timeMS,value,"name"],...] batch
// payload. Names carry no escapes (the generator makes plain ones), so a
// name that needs them fails the parse and counts as corrupt.
func parseJSONBatch(data []byte, dst []tuple.Tuple, names map[string]string) ([]tuple.Tuple, bool) {
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return dst, false
	}
	p := data[1 : len(data)-1]
	for len(p) > 0 {
		if p[0] == ',' {
			p = p[1:]
		}
		if len(p) == 0 || p[0] != '[' {
			return dst, false
		}
		end := bytes.IndexByte(p, ']')
		if end < 0 {
			return dst, false
		}
		f := p[1:end]
		p = p[end+1:]
		c1 := bytes.IndexByte(f, ',')
		if c1 < 0 {
			return dst, false
		}
		c2 := bytes.IndexByte(f[c1+1:], ',')
		if c2 < 0 {
			return dst, false
		}
		c2 += c1 + 1
		ts, ok := parseInt(f[:c1])
		if !ok {
			return dst, false
		}
		var val float64
		if n, ok := parseInt(f[c1+1 : c2]); ok {
			val = float64(n)
		} else if val, ok = parseFloat(f[c1+1 : c2]); !ok {
			return dst, false
		}
		q := f[c2+1:]
		if len(q) < 2 || q[0] != '"' || q[len(q)-1] != '"' || bytes.IndexByte(q[1:len(q)-1], '\\') >= 0 {
			return dst, false
		}
		name, ok := names[string(q[1:len(q)-1])]
		if !ok {
			name = string(q[1 : len(q)-1])
			names[name] = name
		}
		dst = append(dst, tuple.Tuple{Time: ts, Value: val, Name: name})
	}
	return dst, true
}

func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

func parseFloat(b []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// sessionBytes sums the flight log's segment sizes.
func sessionBytes(dir string) int64 {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

var errTimeout = errors.New("timed out")
