package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icache/internal/obs"
	"icache/internal/overload"
	"icache/internal/wire"
)

// Handler is what a protocol package registers on a Server: how each of its
// opcodes is to be treated, and the function that answers a request.
type Handler struct {
	// Route classifies a request by its opcode (envelopes already peeled).
	Route func(op byte) Route
	// Serve answers one request — req[0] is its opcode — with exactly one
	// frame through w. ctx is its trace context (zero when untraced), dl its
	// deadline on the local clock (zero when unbounded). req is valid only
	// until Serve returns. The returned error is a failed connection write
	// (what w's methods return); everything else is answered in-band.
	Serve func(w Response, req []byte, ctx obs.TraceCtx, dl time.Time) error
}

// Route is a protocol's verdict on one opcode.
type Route uint8

const (
	// Gated: the admission gate applies. Health checks, monitoring and
	// liveness traffic stay ungated — an operator must be able to see an
	// overloaded server, and shedding heartbeats would turn a busy directory
	// into a false mass-death event.
	Gated Route = 1 << iota
	// Inline: the request never blocks (no I/O, no lock held across any), so
	// it is answered from the connection's read loop — no hand-off and no
	// copy of the request per call. Anything that may wait (a cache miss
	// reads the backend) leaves it clear and is served by one of the
	// connection's dispatch workers. It is not a speed-up for ops
	// that rarely wait: the cache's opPeerGetBatch was measured Inline over
	// three alternating peer_churn pairs and moved nothing (rpc.route).
	Inline
)

// Server is the listening half of the transport: it accepts connections,
// reads frames, peels envelopes, admits and dispatches to one Handler.
//
// connMu guards the listener and the live-connection set; it nests with
// nothing.
type Server struct {
	h Handler

	ln      net.Listener
	conns   sync.WaitGroup
	connMu  sync.Mutex
	connSet map[net.Conn]struct{}
	closed  chan struct{}

	// Configuration, set before Serve and read without synchronization on
	// the serving path.
	//
	// Gate is the adaptive admission controller on Gated requests (nil =
	// admit everything). AdmissionWait, when non-nil, records the time a
	// multiplexed request waited for a dispatch worker. Logf sinks connection
	// errors (nil = silent).
	Gate          *overload.Gate
	AdmissionWait *obs.Histogram
	Logf          func(format string, args ...interface{})

	shed     atomic.Int64 // requests the gate refused (StatusRetryAfter)
	expired  atomic.Int64 // requests a handler dropped as too late (StatusExpired)
	inflight atomic.Int64 // mux requests in async dispatch (gauge)
}

// NewServer returns a server that answers with h.
func NewServer(h Handler) *Server {
	return &Server{h: h, connSet: make(map[net.Conn]struct{}), closed: make(chan struct{})}
}

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error (net.ErrClosed after a clean shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return net.ErrClosed
			default:
				return err
			}
		}
		// Register under connMu, where Close closes what is registered: a
		// connection accepted while Close was already running is refused
		// here instead of being served with nobody left to close it.
		s.connMu.Lock()
		select {
		case <-s.closed:
			s.connMu.Unlock()
			conn.Close()
			return net.ErrClosed
		default:
		}
		s.connSet[conn] = struct{}{}
		s.conns.Add(1)
		s.connMu.Unlock()
		go func() {
			defer func() {
				s.connMu.Lock()
				delete(s.connSet, conn)
				s.connMu.Unlock()
				s.conns.Done()
			}()
			s.ServeConn(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listener address (once Serve has been called).
func (s *Server) Addr() net.Addr {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes the live connections and waits for their
// read loops and in-flight handlers to finish.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	var err error
	s.connMu.Lock()
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn := range s.connSet {
		conn.Close()
	}
	s.connMu.Unlock()
	s.conns.Wait()
	return err
}

// OverloadCounters reports how many requests the admission gate shed and how
// many the handler dropped because their deadline budget had run out. Neither
// was served, so a protocol's conservation identity extends to
// served + shed + expired == offered.
func (s *Server) OverloadCounters() (shed, expired int64) {
	return s.shed.Load(), s.expired.Load()
}

// MuxInflight reports the number of mux requests currently being served on
// dispatch goroutines across all connections (gauge).
func (s *Server) MuxInflight() int64 { return s.inflight.Load() }

// muxServerInflight bounds concurrently dispatched mux requests per
// connection (it is the most dispatch workers one has); when all are busy,
// the read loop blocks, pushing backpressure onto the client's own in-flight
// bound.
const muxServerInflight = 64

// Conn is one served connection's state: the write mutex all response
// frames serialize on and the connection's dispatch workers. A worker lives
// as long as the connection: a request that finds none parked on work starts
// one, which serves it and parks for the next — so its stack grows to the
// handler's depth once, not once per request. workers is touched only by the
// goroutine calling ServeFrame (one Conn's frames come from one read loop).
type Conn struct {
	srv     *Server
	conn    net.Conn
	wmu     sync.Mutex
	wg      sync.WaitGroup
	work    chan dispatch // unbuffered: a send succeeds only into a parked worker
	workers int
}

// dispatch is one muxed request handed to a dispatch worker; req is its own
// copy of the request bytes (a pooled frame buffer).
type dispatch struct {
	w        Response
	req      *wire.Buffer
	ctx      obs.TraceCtx
	dl       time.Time
	admitted bool
}

// NewConn wraps conn for ServeFrame. ServeConn does this itself; tests,
// fuzzers and benchmarks that inject frames without a read loop call it
// with an in-memory connection and Wait once they have injected the last.
func (s *Server) NewConn(conn net.Conn) *Conn {
	return &Conn{srv: s, conn: conn, work: make(chan dispatch)}
}

// Wait retires c: it returns once every dispatched request has been answered
// and every worker has exited. Call it once, after the last ServeFrame on c.
func (c *Conn) Wait() {
	close(c.work)
	c.wg.Wait()
}

// ServeConn is one connection's read loop; Serve runs it for every accepted
// connection. It reads through the connection's wire.FrameReader, reusing
// its frame buffer across requests (ServeFrame copies whatever outlives its
// call, so aliasing is safe), and hands every frame to ServeFrame. On
// teardown the connection closes FIRST, then the loop retires its dispatch
// workers: stragglers fail their writes fast instead of blocking shutdown.
func (s *Server) ServeConn(conn net.Conn) {
	c := s.NewConn(conn)
	defer c.Wait()
	defer conn.Close()
	rd := wire.NewFrameReader(conn)
	for {
		req, err := rd.Next()
		if err == nil {
			err = s.ServeFrame(c, req)
		}
		if err != nil {
			// Normal client disconnects arrive as EOF; anything else is worth
			// a log line but never a crash.
			if !errors.Is(err, io.EOF) {
				s.logIfUnexpected(err)
			}
			return
		}
	}
}

// ServeFrame is the one request path: every frame a connection delivers —
// and every request the tests and the fuzzers inject — is peeled, gated and
// dispatched here, in this order:
//
//  1. The OpMux envelope is required. A frame without one is answered with a
//     bare StatusErr (there is no request id to echo) and never served. A
//     muxed request may be served off the read loop (by one of the
//     connection's dispatch workers), so a pipelined client gets concurrent
//     service on one connection, and its response echoes the envelope. All
//     response writes serialize on the connection's write mutex so frames
//     never interleave.
//  2. The deadline and trace envelopes are peeled (peelEnvelopes), so the
//     gate and the dispatch below key on the INNER opcode.
//  3. OpPing is answered here; any other reserved opcode left at this point
//     (an envelope inside the wrong envelope) is an error.
//  4. Admission runs BEFORE the hand-off: a shed request is answered from
//     the read loop and never occupies a dispatch worker — that is the whole
//     point of shedding.
//  5. The Handler answers: on the read loop for an Inline opcode, else on a
//     dispatch worker with its own copy of the request.
//
// frame aliases the read loop's reusable buffer, and the calls on one Conn
// come from one goroutine. The returned error is a failed write from the read
// loop (the caller tears the connection down); protocol errors are answered
// in-band.
func (s *Server) ServeFrame(c *Conn, frame []byte) error {
	if len(frame) < MuxHeaderLen || frame[0] != OpMux {
		e := wire.GetBuffer()
		e.U8(StatusErr)
		e.Str("transport: request without mux envelope")
		return Response{c: c}.write(e)
	}
	w := Response{c: c, muxID: binary.BigEndian.Uint32(frame[1:])}
	inner, ctx, dl, err := peelEnvelopes(frame[MuxHeaderLen:])
	if err != nil {
		return w.Err(err)
	}
	if len(inner) == 0 {
		return w.Err(errors.New("transport: empty request"))
	}
	op := inner[0]
	switch op {
	case OpPing:
		return w.status(StatusOK, nil)
	case OpMux, OpTraced, OpDeadline:
		return w.Err(fmt.Errorf("transport: unknown opcode %d", op))
	}
	route := s.h.Route(op)
	admitted := false
	if g := s.Gate; g != nil && route&Gated != 0 {
		ok, after := g.Admit(time.Now())
		if !ok {
			s.shed.Add(1)
			return w.status(StatusRetryAfter, func(e *wire.Buffer) { e.I64(int64(after)) })
		}
		admitted = true
	}
	if route&Inline != 0 {
		err := s.h.Serve(w, inner, ctx, dl)
		if admitted {
			s.Gate.Done()
		}
		return err
	}
	req := wire.GetBuffer()
	req.B = append(req.B, inner...)
	c.handOff(dispatch{w, req, ctx, dl, admitted})
	return nil
}

// handOff gives d to a parked worker, or starts one, or — all
// muxServerInflight busy — blocks until one parks. The time spent blocked, the
// server's standing queue delay, feeds the admission gate's CoDel window and
// the admission-wait histogram.
func (c *Conn) handOff(d dispatch) {
	s := c.srv
	measure := d.admitted || s.AdmissionWait != nil
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	s.inflight.Add(1)
	select {
	case c.work <- d:
	default:
		if c.workers < muxServerInflight {
			c.workers++
			c.wg.Add(1)
			go c.serveDispatched(d)
		} else {
			c.work <- d
		}
	}
	if measure {
		now := time.Now()
		wait := now.Sub(t0)
		if d.admitted {
			s.Gate.Observe(now, wait)
		}
		s.AdmissionWait.Record(wait)
	}
}

// serveDispatched is a dispatch worker: it answers d, then every request the
// read loop hands it, until Wait closes the channel.
func (c *Conn) serveDispatched(d dispatch) {
	defer c.wg.Done()
	s := c.srv
	for ok := true; ok; d, ok = <-c.work {
		err := s.h.Serve(d.w, d.req.Payload(), d.ctx, d.dl)
		wire.PutBuffer(d.req)
		if d.admitted {
			s.Gate.Done()
		}
		s.inflight.Add(-1)
		if err != nil {
			s.logIfUnexpected(err)
		}
	}
}

func (s *Server) logIfUnexpected(err error) {
	if s.Logf != nil && !errors.Is(err, net.ErrClosed) {
		s.Logf("transport: connection error: %v", err)
	}
}

// Response is the one frame a request is owed: it knows the connection and
// the mux envelope to echo. Passed by value (it is two words), so serving a
// request allocates nothing for it.
type Response struct {
	c     *Conn
	muxID uint32
}

// Reply answers StatusOK followed by whatever body appends to e — or, when
// body returns an error, StatusErr and its message — as one buffered frame.
func (w Response) Reply(body func(e *wire.Buffer) error) error {
	e := wire.GetBuffer()
	w.begin(e, StatusOK)
	mark := len(e.B)
	if err := body(e); err != nil {
		e.B = e.B[:mark-1]
		e.U8(StatusErr)
		e.Str(err.Error())
	}
	return w.write(e)
}

// Err answers StatusErr with err's message.
func (w Response) Err(err error) error {
	return w.status(StatusErr, func(e *wire.Buffer) { e.Str(err.Error()) })
}

// Expired answers StatusExpired: the request's budget ran out before the
// work was started. The handler must not have touched any state it counts.
func (w Response) Expired() error {
	w.c.srv.expired.Add(1)
	return w.status(StatusExpired, nil)
}

func (w Response) status(status byte, body func(e *wire.Buffer)) error {
	e := wire.GetBuffer()
	w.begin(e, status)
	if body != nil {
		body(e)
	}
	return w.write(e)
}

func (w Response) begin(e *wire.Buffer, status byte) {
	e.U8(OpMux)
	e.U32(w.muxID)
	e.U8(status)
}

// write sends the pooled frame buffer e — one frame, one write, under the
// connection's write mutex — and recycles it.
func (w Response) write(e *wire.Buffer) error {
	w.c.wmu.Lock()
	err := wire.WriteFrame(w.c.conn, e)
	w.c.wmu.Unlock()
	wire.PutBuffer(e)
	return err
}

// BeginVec starts a StatusOK answer in v for a handler that frames its body
// as header runs plus payload references (the cache's pinned hit path): v is
// reset and given the envelope echo and the status. The handler appends the
// body and sends it with WriteVec.
func (w Response) BeginVec(v *wire.Vec) {
	v.Reset()
	v.U8(OpMux)
	v.U32(w.muxID)
	v.U8(StatusOK)
}

// WriteVec sends v as one frame with ONE vectored write (writev on TCP)
// under the connection's write mutex. Whatever v references must stay valid
// until it returns.
func (w Response) WriteVec(v *wire.Vec) error {
	w.c.wmu.Lock()
	_, err := v.WriteTo(w.c.conn)
	w.c.wmu.Unlock()
	return err
}
