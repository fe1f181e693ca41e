package transport

// This file is the client side of a connection: instead of one serialized
// request/response exchange at a time per connection (head-of-line blocking
// once the serving path is concurrent), the client tags every request frame
// with a u32 request ID and splits the connection into
//
//   - a writer path: any request goroutine may send, serialized only for
//     the duration of one frame write (wmu), and
//   - a demux reader: ONE background goroutine owns every read on the
//     connection, matches response frames to waiting callers through the
//     pending map, and delivers each result over a buffered channel.
//
// N goroutines can therefore have N frames in flight on one TCP connection;
// the server (Server.ServeFrame) answers each on its read loop or dispatches
// it to a goroutine, as the protocol routes it, and writes responses back in
// completion order. The session is the only exchange path: the ping that
// proves a fresh connection (Client.dialSession) is its first request.
//
// # Channel discipline (lock ordering appendix)
//
// muxSession.mu (pending map) and muxSession.wmu (frame writes) are both
// leaf locks: neither is ever held across network I/O of the OTHER path —
// wmu is held across exactly one WriteFrame (one write(2): prefix, envelope
// and request leave together), mu across map access only.
// The demux reader never takes wmu; writers never read. Result channels
// are buffered (capacity 1) so the reader can always deliver without
// blocking, even if the caller already gave up; a failed session closes
// every pending channel's delivery with the session error, so no caller
// can wait on a dead connection.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"icache/internal/wire"
)

// muxResult is one demuxed response (or the session-level failure). owner,
// when non-nil, is the pooled buffer backing resp: a caller that can prove
// the response is not retained (the borrowed-read API) recycles it via
// wire.PutBuffer; callers that hand response bytes out by reference simply
// drop it, which degrades to today's fresh-allocation-per-frame behavior.
type muxResult struct {
	resp  []byte
	owner *wire.Buffer
	err   error
}

// muxSession is one multiplexed connection generation. A broken session is
// never repaired: the owning Client discards it and dials a fresh one (the
// generation-based redial in client.go), so every field except the pending
// map is immutable after construction.
type muxSession struct {
	conn net.Conn
	// rd is the connection's one frame reader; only the demux reader touches
	// it. bufs is where it takes the buffer of each response from, and where
	// wire.PutBuffer returns the ones its callers recycle.
	rd   *wire.FrameReader
	bufs wire.ReaderPool

	// wmu serializes frame writes (the "writer path"). Held across exactly
	// one WriteFrame, never across a read.
	wmu sync.Mutex

	// mu guards pending/nextID/err (map access only, never held across I/O).
	mu      sync.Mutex
	pending map[uint32]chan muxResult
	nextID  uint32
	err     error

	// done closes when the demux reader exits (leak hygiene: Close waits).
	done chan struct{}

	// inflight bounds concurrently outstanding requests on this session
	// (nil = unbounded). Acquired before a request ID is allocated.
	inflight chan struct{}

	// free recycles this session's capacity-1 result channels. A channel is
	// only recycled on paths that RECEIVED from it (after delivery nothing
	// can be sent again: the pending entry is gone); a channel abandoned by
	// forget may still receive a racing delivery, so it is dropped, never
	// recycled. The list is per session, not process-wide: a channel made
	// inside a virtual-clock bubble must never serve a connection outside it.
	// It holds up to DefaultMuxInflight channels, one per call a session
	// usually has outstanding; a channel past that is dropped.
	free chan chan muxResult
}

// newMuxSession starts the demux reader on conn. inflightCap <= 0 means
// unbounded.
func newMuxSession(conn net.Conn, inflightCap int) *muxSession {
	m := &muxSession{
		conn:    conn,
		rd:      wire.NewFrameReader(conn),
		pending: make(map[uint32]chan muxResult),
		done:    make(chan struct{}),
		free:    make(chan chan muxResult, DefaultMuxInflight),
	}
	if inflightCap > 0 {
		m.inflight = make(chan struct{}, inflightCap)
	}
	go m.readLoop()
	return m
}

// doOwned sends one request frame and blocks until the demux reader
// delivers its response (or the session dies). Safe for unbounded
// concurrent use. It also returns the pooled buffer that backs the response
// (nil when the read path had to allocate outside the pool): the caller
// recycles it with wire.PutBuffer once — and only once — it is done with
// every byte of resp, or drops it when response bytes are handed out by
// reference.
//
// A non-zero deadline bounds the wait for this ONE call without poisoning
// the shared connection: on expiry the request ID is forgotten (a racing
// late delivery is dropped with the abandoned channel) and the session
// stays healthy for its other callers — unlike a conn.SetDeadline, which
// would fail every pipelined request on the connection.
func (m *muxSession) doOwned(req []byte, deadline time.Time) ([]byte, *wire.Buffer, error) {
	if m.inflight != nil {
		m.inflight <- struct{}{}
		defer func() { <-m.inflight }()
	}
	ch := m.resultChan()
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		m.recycle(ch)
		return nil, nil, err
	}
	id := m.nextID
	m.nextID++
	m.pending[id] = ch
	m.mu.Unlock()

	e := wire.GetBuffer()
	e.U8(OpMux)
	e.U32(id)
	e.B = append(e.B, req...)
	m.wmu.Lock()
	err := wire.WriteFrame(m.conn, e)
	m.wmu.Unlock()
	wire.PutBuffer(e)
	if err != nil {
		m.forget(id)
		return nil, nil, fmt.Errorf("transport: mux send: %w", err)
	}
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		select {
		case res := <-ch:
			timer.Stop()
			m.recycle(ch)
			return res.resp, res.owner, res.err
		case <-timer.C:
			// The reader may still deliver into the (buffered) channel; the
			// abandoned channel is dropped, never recycled (see free).
			m.forget(id)
			return nil, nil, fmt.Errorf("transport: mux call: %w", ErrCallTimeout)
		}
	}
	res := <-ch
	// Delivery is exactly-once (the pending entry was removed before the
	// send), so after a receive the drained channel is safe to reuse.
	m.recycle(ch)
	return res.resp, res.owner, res.err
}

// resultChan takes a result channel from the session's free list, or makes
// one when the list is empty.
func (m *muxSession) resultChan() chan muxResult {
	select {
	case ch := <-m.free:
		return ch
	default:
		return make(chan muxResult, 1)
	}
}

// recycle returns a drained result channel to the free list; a full list
// drops it.
func (m *muxSession) recycle(ch chan muxResult) {
	select {
	case m.free <- ch:
	default:
	}
}

// forget retires a request ID whose frame never made it out. The reader may
// have raced a delivery into the (buffered) channel; that result is simply
// dropped with the channel.
func (m *muxSession) forget(id uint32) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// readLoop is the demux reader: the only goroutine that ever reads the
// connection. It exits on the first transport or protocol error, failing
// every pending caller.
func (m *muxSession) readLoop() {
	defer close(m.done)
	for {
		// Read each frame into a pooled buffer: the steady-state hot path
		// (borrowed reads) returns it after decoding, so the demux reader
		// stops being a large-allocation-per-response source. Callers that
		// retain response bytes simply never recycle their buffer and the
		// pool re-allocates — correctness never depends on the recycle.
		e := m.bufs.Get()
		frame, err := wire.ReadFrameInto(m.rd, e.B[:cap(e.B)])
		if err != nil {
			m.fail(fmt.Errorf("transport: mux receive: %w", err))
			return
		}
		e.B = frame
		if len(frame) < MuxHeaderLen || frame[0] != OpMux {
			m.fail(fmt.Errorf("transport: mux: malformed response frame (%d bytes)", len(frame)))
			return
		}
		d := wire.NewReader(frame)
		d.U8() // OpMux
		id := d.U32()
		m.mu.Lock()
		ch := m.pending[id]
		delete(m.pending, id)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{resp: frame[MuxHeaderLen:], owner: e}
		}
		// An unknown ID is a response to a request we already forgot
		// (write raced the failure path); drop it and keep reading.
	}
}

// fail marks the session dead, delivers err to every pending caller, and
// closes the connection so the writer path errors fast too.
func (m *muxSession) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	pend := m.pending
	m.pending = make(map[uint32]chan muxResult)
	m.mu.Unlock()
	for _, ch := range pend {
		ch <- muxResult{err: err}
	}
	m.conn.Close()
}

// broken reports whether the session has failed.
func (m *muxSession) broken() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err != nil
}

// close tears the session down (idempotent) and waits for the demux reader
// to exit, so Close leaves no goroutine behind.
func (m *muxSession) close() {
	m.conn.Close()
	<-m.done
}
