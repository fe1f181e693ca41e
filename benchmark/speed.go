package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"
)

// speedProbe reads how fast the machine is right now, from a loop whose code
// no change to the repository can alter: one goroutine asks, over a loopback
// TCP connection, for a fixed 64 KiB response, another writes it, the first
// reads it whole and compares it. That is the instruction mix of the
// saturation workloads (system calls, the kernel's loopback copy, netpoll
// wake-ups, goroutine switches, a compare over the payload) without any of
// the program's own code.
type speedProbe struct {
	ln     net.Listener
	conn   net.Conn
	served chan error
	want   []byte
	got    []byte
}

const (
	speedPayload = 64 << 10
	speedSlice   = 25 * time.Millisecond
	// speedNominal is the probe's rate on the reference sandbox (2 cores,
	// go1.24, one P) while its host is quiet: speed 1.
	speedNominal = 60000.0
	// speedWindowMax bounds one reading of the probe; a round spends two.
	speedWindowMax = 250 * time.Millisecond
)

// speedWindow is how long one reading of the probe takes in a round of the
// given length: a twentieth of it, at most speedWindowMax.
func speedWindow(round time.Duration) time.Duration {
	return min(round/20, speedWindowMax)
}

func newSpeedProbe() (*speedProbe, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{ln: ln, served: make(chan error, 1), want: make([]byte, speedPayload), got: make([]byte, speedPayload)}
	for i := range p.want {
		p.want[i] = byte(i * 31)
	}
	go func() { p.served <- p.serve() }()
	if p.conn, err = net.DialTimeout("tcp", ln.Addr().String(), dialTimeout); err != nil {
		ln.Close()
		<-p.served
		return nil, err
	}
	// One slice unread, so the first reading does not time the connection's
	// warm-up.
	if _, err := p.run(speedSlice); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// serve answers every 8-byte request with the payload until the client
// hangs up.
func (p *speedProbe) serve() error {
	c, err := p.ln.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	var req [8]byte
	for {
		if _, err := io.ReadFull(c, req[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := c.Write(p.want); err != nil {
			return err
		}
	}
}

// around reads the probe for window before and after measure runs and
// returns the machine's speed over the round: the mean of the two readings
// over speedNominal. The host's speed moves over minutes, so the two
// readings bracket a round of a few seconds closely enough.
func (p *speedProbe) around(window time.Duration, measure func() error) (float64, error) {
	// A collection finishes before each reading: on one P the collector's
	// background work for the garbage of a set-up or a tear-down would
	// otherwise take a quarter of the probe's processor.
	runtime.GC()
	before, err := p.run(window)
	if err != nil {
		return 0, err
	}
	if err := measure(); err != nil {
		return 0, err
	}
	runtime.GC()
	after, err := p.run(window)
	if err != nil {
		return 0, err
	}
	return (before + after) / 2 / speedNominal, nil
}

// run drives the loop for d and returns round trips per second, read like
// the saturation workloads' throughput: the upper-quartile slice.
func (p *speedProbe) run(d time.Duration) (float64, error) {
	var req [8]byte
	var perSlice sliceCounts
	start := time.Now()
	for {
		if _, err := p.conn.Write(req[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(p.conn, p.got); err != nil {
			return 0, err
		}
		if !bytes.Equal(p.got, p.want) {
			return 0, fmt.Errorf("speed probe: the echoed payload differs")
		}
		at := time.Since(start)
		if at >= d {
			return perSlice.quantileRate(at, speedSlice, satQuantile), nil
		}
		perSlice.note(at, speedSlice, 1)
	}
}

// close stops the probe; closing a nil probe is a no-op.
func (p *speedProbe) close() error {
	if p == nil {
		return nil
	}
	p.conn.Close()
	err := <-p.served
	p.ln.Close()
	return err
}
