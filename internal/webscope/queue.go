package webscope

import (
	"sync"

	"repro/internal/tuple"
)

// eventQueue is the per-client bounded drop-oldest outbound queue, the
// web lane's analogue of glib.WriteWatch: the hub pushes events on its
// loop goroutine, the writer takes and frames them, and when the browser
// can't keep up the oldest droppable event goes overboard rather than
// growing the queue or blocking the hub. Protected events — the hello,
// the subscription's opening unit, WebSocket pong and close frames — are
// never dropped: the stream would lose its framing, or the peer hang its
// keepalive on our congestion.
type eventQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	//gscope:guardedby mu
	items []event
	//gscope:guardedby mu
	closed bool
	// finishing makes take drain what is queued and then report closed,
	// instead of discarding — the WebSocket lane's close-echo frames
	// must reach the wire after the reader has already quit.
	//gscope:guardedby mu
	finishing bool
	limit     int
}

// event is one queued stream item; the writer frames it for its lane.
type event struct {
	kind eventKind
	// data is the hub's tuple chunk (shared with other subscribers, so
	// read-only) or an already framed message.
	data      []byte
	frame     tuple.ControlFrame // evControl
	protected bool
}

type eventKind uint8

const (
	evTuples  eventKind = iota // a JSON array, or v3 frames on the binary lane
	evControl                  // a hub control frame
	evRaw                      // framed by the gateway: hello, pong, close
)

func newEventQueue(limit int) *eventQueue {
	q := &eventQueue{limit: limit}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues ev, first dropping the oldest droppable events while the
// queue is full; protected events may exceed the limit. It returns how
// many events it dropped. A closed or finishing queue discards ev without
// counting it: the stream is ending.
func (q *eventQueue) push(ev event) (dropped int) {
	q.mu.Lock()
	if q.closed || q.finishing {
		q.mu.Unlock()
		return 0
	}
	if !ev.protected {
		for len(q.items) >= q.limit {
			i := q.firstDroppableLocked()
			if i < 0 {
				break
			}
			dropped++
			q.items = append(q.items[:i], q.items[i+1:]...)
		}
	}
	q.items = append(q.items, ev)
	q.mu.Unlock()
	q.cond.Signal()
	return dropped
}

// firstDroppableLocked returns the oldest non-protected index; caller
// holds mu.
func (q *eventQueue) firstDroppableLocked() int {
	for i, it := range q.items {
		if !it.protected {
			return i
		}
	}
	return -1
}

// take blocks until events are queued and moves all of them into dst
// (whose backing array becomes the queue's next buffer, so a steady
// stream allocates nothing). ok is false once the queue is closed
// (remaining events are discarded — shutdown is prompt by design) or
// finished and empty (everything queued has drained).
func (q *eventQueue) take(dst []event) (evs []event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && !q.finishing && len(q.items) == 0 {
		q.cond.Wait()
	}
	if q.closed || len(q.items) == 0 {
		return dst, false
	}
	evs, q.items = q.items, dst[:0]
	return evs, true
}

// finish refuses further pushes and lets the writer drain what is
// already queued before take reports closed. The drain is bounded: the
// queue is bounded and every write carries a deadline. close still
// preempts it for prompt shutdown.
func (q *eventQueue) finish() {
	q.mu.Lock()
	q.finishing = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// close wakes the writer and discards anything queued. Idempotent.
func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}
