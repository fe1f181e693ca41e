package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was made. Parent is the span that caused
// this one; Req is shared by every span of one client request.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace: a saturation workload opens tens of
// thousands of requests a second, and the per-layer numbers come from the
// counters, not from the span list, so the tail of a long run may be cut.
const maxSpans = 1 << 18

// recorder keeps the spans of a traced run in memory until the run ends.
// A nil *recorder is the untraced run: every method is a no-op, so the
// decorators and workloads call it unconditionally.
type recorder struct {
	t0   time.Time
	root uint64
	next atomic.Uint64

	// open counts client requests in flight and lastReq names the most
	// recently opened one: a decorator span can name its request only while
	// exactly one is open (the serving goroutines carry no request context
	// this benchmark could read).
	open    atomic.Int64
	lastReq atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder(workload string) *recorder {
	r := &recorder{t0: time.Now(), spans: make([]span, 0, maxSpans)}
	r.root = r.id()
	r.spans = append(r.spans, span{Name: "workload." + workload, ID: r.root})
	return r
}

func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records one finished span.
func (r *recorder) add(name string, id, parent, req uint64, start, end time.Time) {
	if r == nil {
		return
	}
	sp := span{Name: name, ID: id, Parent: parent, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, sp)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// request opens a client request span and returns its id; finish it with
// endRequest.
func (r *recorder) request() uint64 {
	if r == nil {
		return 0
	}
	id := r.id()
	r.lastReq.Store(id)
	r.open.Add(1)
	return id
}

func (r *recorder) endRequest(name string, id uint64, start, end time.Time) {
	if r == nil {
		return
	}
	r.open.Add(-1)
	r.add(name, id, r.root, id, start, end)
}

// child records a span below the one open client request, or below the
// workload root when none or several are open.
func (r *recorder) child(name string, start, end time.Time) {
	if r == nil {
		return
	}
	parent, req := r.root, uint64(0)
	if r.open.Load() == 1 {
		parent = r.lastReq.Load()
		req = parent
	}
	r.add(name, r.id(), parent, req, start, end)
}

// finish closes the root span and reports (recorded, dropped).
func (r *recorder) finish() (int, int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].End = time.Since(r.t0).Nanoseconds()
	return len(r.spans), r.dropped
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
