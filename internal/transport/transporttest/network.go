package transporttest

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"icache/internal/transport"
)

// Network is an in-memory network: listeners at names a test chooses, and
// dials that are connected pairs of in-memory conns. NewNetwork installs it
// as the transport's dialer, so every transport.Client — a trainer's, a
// node's peer clients, a directory client — reaches its server through it,
// and a server is a transport.Server serving one of its listeners. Nothing
// touches a socket, and a read waits on a channel, so the whole stack runs
// inside a testing/synctest bubble on a virtual clock.
type Network struct {
	mu     sync.Mutex
	lns    map[string]*listener // open listeners by name
	routes map[string]route     // every dialable address
	anon   int                  // listeners ListenAny has named
}

// route says where a dialed address leads: the listener named target, with
// the server end of each connection passed through wrap (nil: as it is).
type route struct {
	target string
	wrap   func(net.Conn) net.Conn
}

// errRefused is what a dial fails with when nothing listens at its address.
var errRefused = errors.New("transporttest: connection refused")

// NewNetwork returns an empty network installed as the transport's dialer
// until the test ends.
func NewNetwork(t testing.TB) *Network {
	n := &Network{lns: map[string]*listener{}, routes: map[string]route{}}
	t.Cleanup(transport.SetDialer(n.dial))
	return n
}

// Listen opens a listener at name; dials to name reach it. A name whose
// listener was closed may listen again (a restarted process on its old
// address).
func (n *Network) Listen(name string) net.Listener {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, busy := n.lns[name]; busy {
		panic(fmt.Sprintf("transporttest: %s is already listening", name))
	}
	ln := &listener{net: n, name: name, accept: make(chan net.Conn, 64), done: make(chan struct{})}
	n.lns[name] = ln
	if _, ok := n.routes[name]; !ok {
		n.routes[name] = route{target: name}
	}
	return ln
}

// ListenAny opens a listener at a name no listener of the network has had
// (read it off its Addr).
func (n *Network) ListenAny() net.Listener {
	n.mu.Lock()
	n.anon++
	name := fmt.Sprintf("listener%d", n.anon)
	n.mu.Unlock()
	return n.Listen(name)
}

// Alias adds the address alias for whatever listens at target, with the
// server end of every connection dialed to it passed through wrap — a fault
// schedule on one kind of traffic (say, a node's peers) that leaves the rest
// (its trainer) alone.
func (n *Network) Alias(alias, target string, wrap func(net.Conn) net.Conn) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.routes[alias] = route{target: target, wrap: wrap}
	return alias
}

// dial connects to addr: a conn pair whose server end is queued on the
// listener behind addr. It fails with errRefused when nothing listens there
// or the listener's backlog is full. It is the transport.DialFunc NewNetwork
// installs; a dial never waits, so it ignores the deadline.
func (n *Network) dial(addr string, _ time.Time) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.routes[addr]
	ln := n.lns[r.target]
	if !ok || ln == nil {
		return nil, fmt.Errorf("dial %s: %w", addr, errRefused)
	}
	client, server := pipe()
	if r.wrap != nil {
		server = r.wrap(server)
	}
	select {
	case ln.accept <- server:
		return client, nil
	default:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("dial %s: backlog full: %w", addr, errRefused)
	}
}

// Dial connects to addr the way a transport.Client does, for a test that
// drives a connection by hand.
func (n *Network) Dial(addr string) (net.Conn, error) { return n.dial(addr, time.Time{}) }

// listener is one name's accept queue.
type listener struct {
	net    *Network
	name   string
	accept chan net.Conn
	done   chan struct{} // closed by Close, under the network's mu
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops accepting; connections already queued are closed, and the
// name refuses dials until it listens again.
func (l *listener) Close() error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	select {
	case <-l.done:
		return nil
	default:
	}
	if l.net.lns[l.name] == l {
		delete(l.net.lns, l.name)
	}
	close(l.done)
	for {
		select {
		case c := <-l.accept:
			c.Close()
		default:
			return nil
		}
	}
}

func (l *listener) Addr() net.Addr { return addr(l.name) }

// addr is a listener's name as a net.Addr.
type addr string

func (a addr) Network() string { return "mem" }
func (a addr) String() string  { return string(a) }

// pipe returns the two ends of an in-memory connection. Unlike net.Pipe, a
// write never waits for the reader: like a socket's send buffer (an
// unbounded one), it queues the bytes and returns. So a writer holding a
// lock — the transport's per-connection write mutex — never holds it across
// a wait on the other end, which a bubble could not wait out: a goroutine
// blocked on a mutex stops its clock. Closing either end closes both, as a
// reset does.
func pipe() (net.Conn, net.Conn) {
	c := &pipeConns{closed: make(chan struct{})}
	a, b := &c.ab, &c.ba
	a.ready, b.ready = make(chan struct{}, 1), make(chan struct{}, 1)
	return &memConn{pair: c, in: b, out: a}, &memConn{pair: c, in: a, out: b}
}

// pipeConns is the state two ends share: a queue per direction.
type pipeConns struct {
	ab, ba    queue
	closeOnce sync.Once
	closed    chan struct{}
}

// queue is one direction's bytes in flight; ready holds a token while it
// may be non-empty.
type queue struct {
	mu    sync.Mutex
	buf   []byte
	ready chan struct{}
}

// memConn is one end of a pipe.
type memConn struct {
	pair    *pipeConns
	in, out *queue
}

func (c *memConn) Read(p []byte) (int, error) {
	for {
		c.in.mu.Lock()
		if len(c.in.buf) > 0 {
			n := copy(p, c.in.buf)
			c.in.buf = c.in.buf[n:]
			if len(c.in.buf) > 0 {
				signal(c.in.ready)
			}
			c.in.mu.Unlock()
			return n, nil
		}
		c.in.mu.Unlock()
		select {
		case <-c.in.ready:
		case <-c.pair.closed:
			return 0, io.EOF
		}
	}
}

func (c *memConn) Write(p []byte) (int, error) {
	select {
	case <-c.pair.closed:
		return 0, net.ErrClosed
	default:
	}
	c.out.mu.Lock()
	c.out.buf = append(c.out.buf, p...)
	c.out.mu.Unlock()
	signal(c.out.ready)
	return len(p), nil
}

// signal leaves a token in ready unless one is there.
func signal(ready chan struct{}) {
	select {
	case ready <- struct{}{}:
	default:
	}
}

func (c *memConn) Close() error {
	c.pair.closeOnce.Do(func() { close(c.pair.closed) })
	return nil
}

func (c *memConn) LocalAddr() net.Addr                { return addr("mem") }
func (c *memConn) RemoteAddr() net.Addr               { return addr("mem") }
func (c *memConn) SetDeadline(t time.Time) error      { return errNoDeadline }
func (c *memConn) SetReadDeadline(t time.Time) error  { return errNoDeadline }
func (c *memConn) SetWriteDeadline(t time.Time) error { return errNoDeadline }

// errNoDeadline: the transport bounds calls with its own timers and sets no
// connection deadline, so an in-memory conn keeps none.
var errNoDeadline = errors.New("transporttest: in-memory conns take no deadline")
