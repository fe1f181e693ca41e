package dkv_test

// The ownership-write combiner under injected connection faults, each in a
// virtual-clock bubble on an in-memory network: a held reply is an exact
// delay on the bubble's clock, and a call or goroutine the combiner leaves
// parked fails the test. These sit in the external test package because
// internal/faults imports dkv.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/dkv"
	"icache/internal/faults"
	"icache/internal/retry"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
)

// The server's first write on a connection answers the ping that proves the
// dial, so write 1 answers the first ownership frame and write 2 the second.
const firstReply, secondReply = 1, 2

// faultyDir serves a fresh directory on a new in-memory network, through a
// listener whose accepted connections consult rules.
func faultyDir(t *testing.T, rules ...faults.Rule) (*dkv.DirServer, string) {
	t.Helper()
	ln := transporttest.NewNetwork(t).ListenAny()
	srv := dkv.NewDirServer(dkv.NewDirectory())
	go srv.Serve(faults.WrapListener(ln, faults.New(1).Add(rules...)))
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// claimAll runs one Claim per id on c at once and returns each call's error.
func claimAll(c *dkv.DirClient, ids int) []error {
	errs := make([]error, ids)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = c.Claim(dataset.SampleID(i), 1)
		}()
	}
	close(start)
	wg.Wait()
	return errs
}

func holdReply(write int64, d time.Duration) faults.Rule {
	return faults.Rule{Op: faults.OpConnWrite, From: write, Until: write + 1, Delay: d}
}

// TestCombinerQueuesBehindAHeldFrame: with the first ownership frame held at
// the server, the other 63 of 64 concurrent Claims leave in exactly one more
// frame.
func TestCombinerQueuesBehindAHeldFrame(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		srv, addr := faultyDir(t, holdReply(firstReply, 300*time.Millisecond))
		c, err := dkv.DialDir(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i, err := range claimAll(c, 64) {
			if err != nil {
				t.Fatalf("claim %d: %v", i, err)
			}
		}
		if frames, ops := srv.OwnershipStats(); frames != 2 || ops != 64 {
			t.Fatalf("64 claims behind a held frame: %d frames, %d entries; want 2 and 64", frames, ops)
		}
	})
}

// TestCombinerDroppedFrameFailsItsCalls: the connection drops instead of
// answering the second frame. Each of the 63 calls it carried fails once,
// the held first call succeeds, and the next call redials and succeeds.
func TestCombinerDroppedFrameFailsItsCalls(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		_, addr := faultyDir(t, holdReply(firstReply, 300*time.Millisecond),
			faults.Rule{Op: faults.OpConnWrite, From: secondReply, Until: secondReply + 1, Action: faults.ActDrop})
		c, err := dkv.DialDirConfigured(addr, dkv.DialConfig{Timeout: time.Second, Policy: retry.None()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		failed := 0
		for _, err := range claimAll(c, 64) {
			if err != nil {
				failed++
			}
		}
		if failed != 63 {
			t.Fatalf("%d of 64 claims failed, want the 63 the dropped frame carried", failed)
		}
		if ok, err := c.Claim(7, 1); err != nil || !ok {
			t.Fatalf("claim after the drop: (%v, %v)", ok, err)
		}
		if _, redials := c.Resilience(); redials != 1 {
			t.Fatalf("%d redials, want 1", redials)
		}
	})
}

// TestCombinerFailedLeaderHandsOn: the first frame outlives its caller's
// per-call bound. That caller's error does not strand the 63 queued behind
// it: the turn passes on, their frame reaches the server, every call
// returns, and nothing is left parked.
func TestCombinerFailedLeaderHandsOn(t *testing.T) {
	vt.Run(t, func(t *testing.T) {
		const hold = 500 * time.Millisecond
		start := time.Now()
		srv, addr := faultyDir(t, holdReply(firstReply, hold))
		c, err := dkv.DialDirConfigured(addr, dkv.DialConfig{Timeout: time.Second, Policy: retry.None(), RPCTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		timedOut := 0
		for _, err := range claimAll(c, 64) {
			if errors.Is(err, transport.ErrDeadlineExceeded) {
				timedOut++
			}
		}
		if timedOut == 0 {
			t.Fatal("no claim timed out behind the held frame")
		}
		// The server reads the handed-on frame once the held reply is out.
		time.Sleep(hold - time.Since(start))
		vt.Wait()
		if frames, _ := srv.OwnershipStats(); frames != 2 {
			t.Fatalf("%d ownership frames reached the server, want the leader's and the one it handed on", frames)
		}
		if ok, err := c.Claim(7, 1); err != nil || !ok {
			t.Fatalf("claim after the timeouts: (%v, %v)", ok, err)
		}
	})
}
