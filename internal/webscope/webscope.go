// Package webscope is the hub's HTTP face: a stdlib-only gateway that
// bridges the v2 subscriber protocol to browsers. It serves live tuple
// streams over Server-Sent Events and a hand-rolled RFC 6455 WebSocket
// endpoint (ws.go — no external deps, the internal/vet precedent),
// historical min/max envelope queries over the hub's tiered backfill
// store as JSON or server-rendered PNG (view.go), REST access to the
// control-parameter registry (params.go), flight-recorder session
// listing and time-window queries (sessions.go), and a small embedded
// HTML+canvas dashboard at / so `gscoped -http :8080` is a usable live
// scope with zero other tooling.
//
// Threading: every piece of hub state is owned by the server's glib
// loop goroutine, while net/http runs handlers on arbitrary goroutines.
// The gateway never touches hub state directly — stream subscriptions,
// their commands and every read marshal through Loop().Invoke (see
// Gateway.invoke). Each stream client is an in-process v2 subscription
// (Server.SubscribeSink) with everything a TCP subscriber gets — shared
// encodings per filter signature, server-side decimation,
// snapshot/backfill — whose sink is a bounded drop-oldest event queue, so
// one stalled tab never blocks the hub or another viewer. The hub encodes
// JSON (or v3) for the queue directly; the gateway only frames events.
// Endpoint reference: docs/HTTP.md.
package webscope

import (
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/netscope"
)

const (
	// DefaultMaxClients bounds concurrent stream clients (SSE plus
	// WebSocket); further stream requests get 503.
	DefaultMaxClients = 64
	// DefaultQueueLimit bounds each stream client's outbound event queue
	// (drop-oldest beyond it).
	DefaultQueueLimit = 256
)

// Options configures a Gateway. The zero value is usable.
type Options struct {
	// MaxClients bounds concurrent stream clients; non-positive selects
	// DefaultMaxClients.
	MaxClients int
	// QueueLimit bounds each stream client's outbound event queue in
	// events (drop-oldest); non-positive selects DefaultQueueLimit.
	QueueLimit int
	// NoDashboard disables the embedded dashboard at / (the API
	// endpoints stay mounted).
	NoDashboard bool
}

// Gateway is the web attachment: an http.Handler over a netscope.Server.
// Construct with New, mount with Server.ListenWeb (which also wires
// teardown into Server.Close). Gateway implements netscope.WebHandler.
type Gateway struct {
	srv  *netscope.Server
	web  *netscope.WebCounters
	opts Options
	mux  *http.ServeMux

	// stop closes when the gateway shuts down; handlers blocked on the
	// loop or on a queue select on it.
	stop chan struct{}

	// mu guards the stream-client registry and the shutdown flag. The
	// WaitGroup counts every stream goroutine; Close waits for it, which
	// is what makes Server.Close leak-free with writers in flight.
	mu sync.Mutex
	//gscope:guardedby mu
	closed bool
	//gscope:guardedby mu
	streams map[*stream]struct{}
	wg      sync.WaitGroup
}

// New builds a gateway over srv. Mount it with srv.ListenWeb(addr, g),
// or on any mux of the caller's — ServeHTTP is a plain handler.
func New(srv *netscope.Server, opts Options) *Gateway {
	if opts.MaxClients <= 0 {
		opts.MaxClients = DefaultMaxClients
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = DefaultQueueLimit
	}
	g := &Gateway{
		srv:     srv,
		web:     srv.Web(),
		opts:    opts,
		stop:    make(chan struct{}),
		streams: make(map[*stream]struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stream", g.handleSSE)
	mux.HandleFunc("/v1/ws", g.handleWS)
	mux.HandleFunc("/v1/view", g.handleView)
	mux.HandleFunc("/v1/params", g.handleParams)
	mux.HandleFunc("/v1/params/", g.handleParams)
	mux.HandleFunc("/v1/sessions", g.handleSessions)
	mux.HandleFunc("/v1/sessions/", g.handleSessions)
	if !opts.NoDashboard {
		mux.HandleFunc("/", g.handleDashboard)
	}
	g.mux = mux
	return g
}

// ServeHTTP dispatches to the mounted endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close shuts the gateway down: refuses new streams, kills every
// in-flight one (closing its event queue and, for WebSocket, its hijacked
// connection), and waits for all stream goroutines to exit. Safe to call
// more than once. netscope.Server.Close calls it before tearing down the
// hub.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	live := make([]*stream, 0, len(g.streams))
	for st := range g.streams {
		live = append(live, st)
	}
	g.mu.Unlock()
	close(g.stop)
	for _, st := range live {
		st.shutdown()
	}
	g.wg.Wait()
	return nil
}

// addStream registers a stream client, enforcing the shutdown flag and
// the client cap, and reserves its WaitGroup slots (n goroutines).
func (g *Gateway) addStream(st *stream, goroutines int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errShutdown
	}
	if len(g.streams) >= g.opts.MaxClients {
		return errTooManyClients
	}
	g.streams[st] = struct{}{}
	g.wg.Add(goroutines)
	return nil
}

// dropStream removes a finished stream from the registry.
func (g *Gateway) dropStream(st *stream) {
	g.mu.Lock()
	delete(g.streams, st)
	g.mu.Unlock()
}

// invoke runs fn on the server's loop goroutine and waits for it. It
// returns false — without waiting further — when the gateway shuts down
// first (a stopped loop never runs posted work); the caller must treat
// fn's results as unset in that case.
func (g *Gateway) invoke(fn func()) bool {
	done := make(chan struct{})
	g.srv.Loop().Invoke(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return true
	case <-g.stop:
		return false
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // best-effort error body
}

// writeJSON writes v as a JSON 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is the only failure
}
