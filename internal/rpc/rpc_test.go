package rpc

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/faults"
	"icache/internal/icache"
	"icache/internal/sampling"
	"icache/internal/storage"
	"icache/internal/transport"
	"icache/internal/transport/transporttest"
	"icache/internal/vt"
	"icache/internal/wire"
)

func testSpec() dataset.Spec {
	return dataset.Spec{Name: "rpc", NumSamples: 2000, MeanSampleBytes: 512, Seed: 21}
}

// testNet is the in-memory network of the bubble test running now (nil
// outside one): listen opens the test's servers on it, and every client
// dials through it.
var testNet *transporttest.Network

// inBubble runs f in a virtual-clock bubble (vt.Run) on a fresh in-memory
// network. The bubble ends only when every goroutine f started has, so a
// server, client or worker the test leaves blocked fails it.
func inBubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	vt.Run(t, func(t *testing.T) {
		testNet = transporttest.NewNetwork(t)
		t.Cleanup(func() { testNet = nil })
		f(t)
	})
}

// listen opens a test server's listener: on testNet inside a bubble, on
// loopback TCP outside one.
func listen(t testing.TB) net.Listener {
	t.Helper()
	if testNet != nil {
		return testNet.ListenAny()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startServer spins up a full server on a test listener.
func startServer(t *testing.T) (*Server, string, *storage.DataSource) {
	t.Helper()
	source, err := storage.NewDataSource(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	srv := newUnstartedServer(t, source)
	return srv, serveOn(t, srv), source
}

func dial(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// encodeGetBatchRequest builds a bare opGetBatch request, as the client
// writes it inside its envelopes, for tests that hand frames to the server.
func encodeGetBatchRequest(ids []dataset.SampleID) []byte {
	e := wire.Buffer{B: []byte{opGetBatch}}
	appendIDList(&e, ids)
	return e.B
}

func TestPing(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestGetBatchDeliversVerifiablePayloads(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	spec := testSpec()

	// Push an H-list so requested samples are H-samples (exact delivery).
	var items []sampling.Item
	ids := []dataset.SampleID{1, 2, 3, 4, 5}
	for _, id := range ids {
		items = append(items, sampling.Item{ID: id, IV: 1.0})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	samples, err := c.GetBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if s.ID != ids[i] {
			t.Fatalf("H-sample %d substituted with %d", ids[i], s.ID)
		}
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("payload of %d corrupt: %v", s.ID, err)
		}
	}
}

// TestGetBatchOwnsItsPayloads: GetBatch's samples are the caller's. The
// client reads every answer into a pooled frame, and GetBatch copies its
// payloads out of it, so the samples stay intact while the same client's
// next calls reuse that frame.
func TestGetBatchOwnsItsPayloads(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	spec := testSpec()
	first, err := c.GetBatch([]dataset.SampleID{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.GetBatch([]dataset.SampleID{dataset.SampleID(100 + 2*i), dataset.SampleID(101 + 2*i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range first {
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("sample %d changed under the client's later calls: %v", s.ID, err)
		}
	}
}

func TestRepeatedFetchHitsCache(t *testing.T) {
	_, addr, src := startServer(t)
	c := dial(t, addr)
	ids := []dataset.SampleID{10, 11, 12}
	var items []sampling.Item
	for _, id := range ids {
		items = append(items, sampling.Item{ID: id, IV: 2.0})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	before := src.Reads()
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if delta := src.Reads() - before; delta != 0 {
		t.Fatalf("second fetch hit the backend %d times; want cached", delta)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits == 0 || st.HCacheLen == 0 {
		t.Fatalf("stats show no caching: %+v", st)
	}
}

func TestEvictedPayloadsDropped(t *testing.T) {
	// A tiny cache forces evictions; the payload store must track them.
	spec := testSpec()
	back, _ := storage.NewBackend(spec, storage.OrangeFS())
	cfg := icache.DefaultConfig(4 * 512) // ~4 samples total
	cfg.EnableLCache = false
	cacheSrv, err := icache.NewServer(back, cfg, sampling.DefaultIIS(), 5)
	if err != nil {
		t.Fatal(err)
	}
	source, _ := storage.NewDataSource(spec)
	srv := NewServer(cacheSrv, source)
	srv.Logf = nil
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := dial(t, ln.Addr().String())

	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 50; id++ {
		items = append(items, sampling.Item{ID: id, IV: float64(id)})
		ids = append(ids, id)
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	stored := srv.payloads.len()
	if stored > 8 {
		t.Fatalf("payload store holds %d samples for a ~4-sample cache", stored)
	}
}

func TestBeginEpochAndSubstitutionPath(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	spec := testSpec()

	// H-list covering ids 0..99; everything else is an L-sample.
	var items []sampling.Item
	for id := dataset.SampleID(0); id < 100; id++ {
		items = append(items, sampling.Item{ID: id, IV: 1})
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginEpoch(0); err != nil {
		t.Fatal(err)
	}
	// Request L-samples; every response must be a valid payload whose ID
	// matches its content even if substituted.
	var lids []dataset.SampleID
	for id := dataset.SampleID(500); id < 600; id++ {
		lids = append(lids, id)
	}
	samples, err := c.GetBatch(lids)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := spec.VerifyPayload(s.ID, s.Payload); err != nil {
			t.Fatalf("substituted payload invalid: %v", err)
		}
	}
}

// TestPolicyClockIsTheRequestInstant: the policy decides every sample of a
// request at the wall-clock instant the request arrived, in one policy hold.
// So a fresh server's one all-miss batch of L-samples misses every sample —
// the package its first L-sample composes cannot land inside the hold to be
// hit or substituted — and the loader has composed exactly that one package:
// it keeps one in flight.
func TestPolicyClockIsTheRequestInstant(t *testing.T) {
	srv, addr, _ := startServer(t)
	c := dial(t, addr)
	ids := make([]dataset.SampleID, 256)
	for i := range ids {
		ids[i] = dataset.SampleID(7 * i)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	v := engineView(srv)
	if st := v.Cache; st.Hits != 0 || st.Substitutions != 0 || st.Misses != int64(len(ids)) {
		t.Errorf("one all-miss batch on a fresh server: %d hits, %d substitutions, %d misses; want 0, 0, %d",
			st.Hits, st.Substitutions, st.Misses, len(ids))
	}
	if v.Packages != 1 {
		t.Errorf("loader composed %d packages for one request; want 1", v.Packages)
	}
}

func TestOutOfRangeRequestAnsweredNotFatal(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	if _, err := c.GetBatch([]dataset.SampleID{999999}); err == nil {
		t.Fatal("out-of-range request succeeded")
	}
	// The connection must still be usable.
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after error response: %v", err)
	}
}

func TestBackendFailureSurfacesAsRPCError(t *testing.T) {
	_, addr, src := startServer(t)
	c := dial(t, addr)
	// An H-sample, so the miss composes no L-cache package whose member
	// reads could take the one injected failure first.
	if err := c.UpdateImportance([]sampling.Item{{ID: 1500, IV: 1}}); err != nil {
		t.Fatal(err)
	}
	src.Injector().Add(faults.FailN(faults.OpSourceFetch, 1, errors.New("injected disk failure")))
	_, err := c.GetBatch([]dataset.SampleID{1500})
	if err == nil || !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal("connection dead after backend failure")
	}
}

func TestMalformedFrameRejected(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown opcodes, the retired per-sample peer read (6) among them, a
	// truncated GetBatch body, and a frame without the mux envelope: each is
	// refused in-band and the connection serves the next frame.
	for i, req := range [][]byte{{0xFF}, {6, 0, 0, 0, 0, 0, 0, 0, 9}, {opGetBatch, 0, 0}} {
		frame := transporttest.MuxWrap(uint32(i), req)
		resp := exchange(t, conn, frame)
		if !bytes.HasPrefix(resp, frame[:transport.MuxHeaderLen]) || resp[transport.MuxHeaderLen] != transport.StatusErr {
			t.Fatalf("malformed request %x answered %x", req, resp)
		}
	}
	if resp := exchange(t, conn, []byte{transport.OpPing}); resp[0] != transport.StatusErr {
		t.Fatalf("bare ping answered %x, want it refused", resp)
	}
	if resp := exchange(t, conn, transporttest.MuxWrap(9, []byte{transport.OpPing})); resp[transport.MuxHeaderLen] != transport.StatusOK {
		t.Fatalf("ping after the refusals answered %x", resp)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	_, addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF} // 4 GB frame announcement
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection rather than allocate.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server responded to a 4 GB frame")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, _ := startServer(t)
	spec := testSpec()
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			c, err := Dial(addr, time.Second)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				ids := []dataset.SampleID{dataset.SampleID((w*100 + i) % spec.NumSamples)}
				samples, err := c.GetBatch(ids)
				if err != nil {
					done <- err
					return
				}
				if err := spec.VerifyPayload(samples[0].ID, samples[0].Payload); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	srv := newSeededServer(t, 5, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	// Encode/decode symmetry for the batch response across varied sizes.
	spec := testSpec()
	var samples []Sample
	for id := dataset.SampleID(0); id < 20; id++ {
		samples = append(samples, Sample{ID: id, Payload: spec.Payload(id)})
	}
	enc := encodeGetBatchResponse(samples)
	d := wire.NewReader(enc)
	if st := d.U8(); st != transport.StatusOK {
		t.Fatal("status lost")
	}
	got, err := decodeGetBatchResponseInto(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("len %d != %d", len(got), len(samples))
	}
	for i := range got {
		if got[i].ID != samples[i].ID || string(got[i].Payload) != string(samples[i].Payload) {
			t.Fatalf("sample %d mismatched after round trip", i)
		}
	}
}
