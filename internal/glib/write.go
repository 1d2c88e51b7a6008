package glib

import (
	"io"
	"sync"
	"sync/atomic"
)

// The read-side watches in io.go emulate G_IO_IN. WriteWatch is the G_IO_OUT
// counterpart for connections the loop writes to (the netscope hub's
// subscribers): callers on the loop goroutine enqueue chunks without ever
// blocking, a per-watch goroutine performs the blocking writes, and the
// queue is bounded with a drop-oldest policy so one stalled peer can only
// lose its own data — it can never stall the loop or other peers.

// DefaultWriteQueueLimit bounds a WriteWatch's queue when the caller passes
// a non-positive limit.
const DefaultWriteQueueLimit = 1024

// WriteErrFunc is invoked once, on the loop goroutine, when a watched
// writer fails. The watch is already canceled when it runs; it is not
// called after Cancel.
type WriteErrFunc func(err error)

// WriteWatch is a handle to a write watch: a bounded outbound queue drained
// by a background goroutine.
type WriteWatch struct {
	loop  *Loop
	w     io.Writer
	onErr WriteErrFunc
	limit int

	mu sync.Mutex
	//gscope:guardedby mu
	queue [][]byte
	// protected counts leading queue chunks exempt from drop-oldest.
	//gscope:guardedby mu
	protected int
	//gscope:guardedby mu
	closed bool

	kick chan struct{}
	done chan struct{}

	canceled atomic.Bool
	sent     atomic.Int64
	dropped  atomic.Int64
	errv     atomic.Value // error

	// Byte accounting: with batch-sized chunks, chunk counts no longer
	// measure traffic; bytes do. enqueued == written+droppedB (with an
	// empty queue) means every accepted byte reached the socket.
	enqueued atomic.Int64
	written  atomic.Int64
	droppedB atomic.Int64
}

// WatchWriter starts a write watch on w. limit bounds the queue in chunks
// (non-positive means DefaultWriteQueueLimit). onErr, if non-nil, is
// delivered on the loop goroutine when a write fails; the underlying writer
// is not closed by the watch — the error callback (or Cancel caller) owns
// that, mirroring the read-side watches.
func (l *Loop) WatchWriter(w io.Writer, limit int, onErr WriteErrFunc) *WriteWatch {
	if limit <= 0 {
		limit = DefaultWriteQueueLimit
	}
	ww := &WriteWatch{
		loop:  l,
		w:     w,
		onErr: onErr,
		limit: limit,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go ww.writer()
	return ww
}

// Send enqueues one chunk for writing and returns immediately. The chunk is
// not copied and must not be mutated afterwards (the hub shares one encoded
// tuple line across every subscriber's watch). When the queue is full the
// oldest queued chunks are dropped — never the loop blocked — and the drop
// counter advances. Send reports false once the watch has failed or been
// canceled.
//
//gscope:hotpath
func (ww *WriteWatch) Send(chunk []byte) bool { return ww.send(chunk, false) }

// SendProtected enqueues a chunk that is exempt from the drop-oldest
// policy: it counts toward the bound but is never evicted (protocol
// handshakes must reach the peer or the whole stream is unframed).
// Protection applies only while the queue holds nothing but protected
// chunks — i.e. to handshake chunks sent before any regular traffic,
// which is the only place FIFO order and protection can coexist; later
// calls behave like Send. Protected chunks are capped at the queue limit:
// once the queue is protected chunks to the bound, nothing is evictable,
// so the incoming chunk is the one dropped (and counted) — the bound holds
// even for a caller that protects everything.
//
//gscope:hotpath
func (ww *WriteWatch) SendProtected(chunk []byte) bool { return ww.send(chunk, true) }

//gscope:hotpath
func (ww *WriteWatch) send(chunk []byte, protect bool) bool {
	if ww.canceled.Load() {
		return false
	}
	ww.mu.Lock()
	if ww.closed {
		ww.mu.Unlock()
		return false
	}
	for len(ww.queue) >= ww.limit && len(ww.queue) > ww.protected {
		var evicted []byte
		if ww.protected > 0 {
			evicted = ww.queue[ww.protected]
			ww.queue = append(ww.queue[:ww.protected], ww.queue[ww.protected+1:]...)
		} else {
			evicted = ww.queue[0]
			ww.queue = ww.queue[1:]
		}
		ww.dropped.Add(1)
		ww.droppedB.Add(int64(len(evicted)))
	}
	if len(ww.queue) >= ww.limit {
		// Everything resident is protected: the eviction loop could not
		// make room, and growing past the limit would let a peer that
		// never drains (every queued chunk a handshake) hold unbounded
		// memory. Drop the incoming chunk instead — enqueued-then-dropped
		// in the byte accounting, so Flushed stays balanced.
		ww.dropped.Add(1)
		ww.enqueued.Add(int64(len(chunk)))
		ww.droppedB.Add(int64(len(chunk)))
		ww.mu.Unlock()
		return true
	}
	if protect && len(ww.queue) == ww.protected {
		ww.protected++
	}
	ww.queue = append(ww.queue, chunk)
	ww.enqueued.Add(int64(len(chunk)))
	ww.mu.Unlock()
	select {
	case ww.kick <- struct{}{}:
	default:
	}
	return true
}

// Queued returns the number of chunks waiting to be written.
func (ww *WriteWatch) Queued() int {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	return len(ww.queue)
}

// Sent returns the number of chunks written to the underlying writer.
func (ww *WriteWatch) Sent() int64 { return ww.sent.Load() }

// Dropped returns the number of chunks discarded by the drop-oldest policy.
func (ww *WriteWatch) Dropped() int64 { return ww.dropped.Load() }

// EnqueuedBytes returns the total bytes accepted by Send/SendProtected.
func (ww *WriteWatch) EnqueuedBytes() int64 { return ww.enqueued.Load() }

// WrittenBytes returns the total bytes written to the underlying writer.
func (ww *WriteWatch) WrittenBytes() int64 { return ww.written.Load() }

// DroppedBytes returns the total bytes discarded by the drop-oldest policy.
func (ww *WriteWatch) DroppedBytes() int64 { return ww.droppedB.Load() }

// Flushed reports whether every accepted byte has either been written or
// dropped — i.e. nothing is queued or in flight.
func (ww *WriteWatch) Flushed() bool {
	return ww.enqueued.Load() == ww.written.Load()+ww.droppedB.Load()
}

// Err returns the write error that stopped the watch, if any.
func (ww *WriteWatch) Err() error {
	if err, ok := ww.errv.Load().(error); ok {
		return err
	}
	return nil
}

// Cancel stops the watch: queued chunks are discarded (counted as dropped
// bytes, so Flushed stays meaningful) and no error callback will run. A
// write already in progress is not interrupted — close the underlying
// connection to unblock it, as with read watches.
func (ww *WriteWatch) Cancel() {
	ww.canceled.Store(true)
	ww.mu.Lock()
	ww.closed = true
	for _, c := range ww.queue {
		ww.droppedB.Add(int64(len(c)))
	}
	ww.queue = nil
	ww.protected = 0
	ww.mu.Unlock()
	select {
	case ww.kick <- struct{}{}:
	default:
	}
}

// Done returns a channel closed when the writer goroutine has exited.
func (ww *WriteWatch) Done() <-chan struct{} { return ww.done }

// maxCoalesceBuf caps the writer's reusable coalescing buffer: a buffer
// that a burst grew past it is dropped after the write, so an idle watch
// holds at most this many bytes.
const maxCoalesceBuf = 256 << 10

// writer drains the queue: a lone chunk is written as is, several are
// coalesced into one write through a buffer the writer owns and reuses,
// and the drained queue slice becomes the next queue, so steady-state
// writes allocate nothing.
func (ww *WriteWatch) writer() {
	defer close(ww.done)
	var buf []byte
	var spare [][]byte
	for {
		ww.mu.Lock()
		batch := ww.queue
		if len(batch) > 0 {
			ww.queue, spare = spare, nil
		}
		ww.protected = 0
		closed := ww.closed
		ww.mu.Unlock()

		if len(batch) > 0 {
			out := batch[0]
			if len(batch) > 1 {
				buf = buf[:0]
				for _, c := range batch {
					buf = append(buf, c...)
				}
				out = buf
			}
			_, err := ww.w.Write(out)
			n, chunks := int64(len(out)), int64(len(batch))
			if cap(buf) > maxCoalesceBuf {
				buf = nil
			}
			clear(batch) // the chunks are shared; don't pin them
			spare = batch[:0]
			if err != nil {
				ww.errv.Store(err)
				ww.mu.Lock()
				ww.closed = true
				// The failed batch and anything still queued will never
				// be written; count them dropped so Flushed() (and its
				// waiters) converge instead of spinning forever.
				ww.droppedB.Add(n)
				for _, c := range ww.queue {
					ww.droppedB.Add(int64(len(c)))
				}
				ww.queue = nil
				ww.mu.Unlock()
				if !ww.canceled.Swap(true) && ww.onErr != nil {
					ww.loop.Invoke(func() { ww.onErr(err) })
				}
				return
			}
			ww.sent.Add(chunks)
			ww.written.Add(n)
			continue
		}
		if closed {
			return
		}
		<-ww.kick
	}
}
