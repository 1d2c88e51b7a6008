package netscope

import (
	"repro/internal/glib"
	"repro/internal/tuple"
)

// maxJSONChunk bounds a JSON tuple chunk: an array closes once it reaches
// this many bytes, so a deep backfill becomes many modest browser events.
const maxJSONChunk = 32 << 10

// Sink is a subscriber's outbound side: the bounded queue the hub fills on
// the loop goroutine — a glib.WriteWatch over a TCP connection, or an
// in-process consumer (SubscribeSink). Implementations must never block;
// a full queue drops its own oldest entries. Chunks may be shared between
// subscribers and must not be modified.
type Sink interface {
	// Open queues the subscription's opening unit — banner, then snapshot
	// or backfill — exempt from drop-oldest, so the bound can neither
	// tear nor evict it.
	Open(parts []Part)
	// Send queues one chunk of tuples in the subscription's encoding.
	Send(chunk []byte)
	// Control queues control frames (a reply or a notification), in order.
	Control(frames ...tuple.ControlFrame)
}

// Part is one piece of an opening unit: a control frame, or, when Tuples
// is non-nil, a chunk of tuples in the subscription's encoding.
type Part struct {
	Frame  tuple.ControlFrame
	Tuples []byte
}

// connSink is a TCP subscriber's Sink: control frames become '#' text
// lines, and an opening unit one protected chunk.
type connSink struct{ ww *glib.WriteWatch }

func (c connSink) Open(parts []Part) {
	var b []byte
	for _, p := range parts {
		if p.Tuples != nil {
			b = append(b, p.Tuples...)
		} else {
			b = tuple.AppendControl(b, p.Frame.Verb, p.Frame.Fields...)
		}
	}
	c.ww.SendProtected(b)
}

func (c connSink) Send(chunk []byte) { c.ww.Send(chunk) }

func (c connSink) Control(frames ...tuple.ControlFrame) {
	var b []byte
	for _, f := range frames {
		b = tuple.AppendControl(b, f.Verb, f.Fields...)
	}
	c.ww.Send(b)
}

// SinkSubscription is the handle to an in-process subscription made with
// SubscribeSink. Its methods must run on the loop goroutine.
type SinkSubscription struct {
	s   *Server
	sub *subscriber
}

// SubscribeSink registers sink as a v2 subscriber with req — a TCP
// handshake's in-process counterpart, with the same filtering, decimation,
// snapshot and backfill. Tuples reach the sink as JSON arrays of [timeMS,
// value, "name"] triples of at most 32 KiB plus one tuple, or as v3 frames
// (docs/WIRE.md) when req.Wire is 3; control frames arrive as values. It
// must run on the loop goroutine; the error reports an invalid request.
func (s *Server) SubscribeSink(sink Sink, req SubscriptionRequest) (*SinkSubscription, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	s.hubInit()
	sub := &subscriber{out: sink, enc: encJSON, state: subSniffing}
	s.hub.subs[sub] = struct{}{}
	s.activateV2(sub, req)
	return &SinkSubscription{s: s, sub: sub}, nil
}

// Command runs one command-plane line ("param set delay 250"); replies
// reach the sink as control frames.
func (h *SinkSubscription) Command(line string) { h.s.subscriberLine(h.sub, line) }

// Cancel ends the subscription (idempotent); the sink receives nothing
// afterwards.
func (h *SinkSubscription) Cancel() { h.s.unsubscribe(h.sub) }

// encoding is a subscription's tuple encoding.
type encoding uint8

const (
	encText encoding = iota // §3.3 lines (TCP subscribers)
	encV3                   // docs/WIRE.md binary frames (Wire=3)
	encJSON                 // JSON arrays (in-process sinks)
)

// appendJSONChunks appends batch to chunks as JSON arrays of at most
// maxJSONChunk bytes plus one tuple, names cleaned as the text encoding
// cleans them.
//
//gscope:hotpath
func appendJSONChunks(chunks [][]byte, batch []tuple.Tuple) [][]byte {
	var prev, clean string
	for len(batch) > 0 {
		b := make([]byte, 1, min(24*len(batch), maxJSONChunk)+64) //gscope:allow hotpath one buffer per chunk, shared by every subscriber of the encoding
		b[0] = '['
		n := 0
		for n < len(batch) && len(b) < maxJSONChunk {
			t := batch[n]
			if t.Name != prev {
				prev, clean = t.Name, tuple.CleanName(t.Name)
			}
			if n > 0 {
				b = append(b, ',')
			}
			b = tuple.AppendJSONTuple(b, tuple.Tuple{Time: t.Time, Value: t.Value, Name: clean})
			n++
		}
		chunks = append(chunks, append(b, ']'))
		batch = batch[n:]
	}
	return chunks
}
