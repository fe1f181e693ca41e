package rpc

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"icache/internal/dataset"
	"icache/internal/sampling"
)

func TestMetricsEndpoint(t *testing.T) {
	srv, addr, _ := startServer(t)
	c := dial(t, addr)
	var items []sampling.Item
	var ids []dataset.SampleID
	for id := dataset.SampleID(0); id < 32; id++ {
		items = append(items, sampling.Item{ID: id, IV: 1})
		ids = append(ids, id)
	}
	if err := c.UpdateImportance(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch(ids); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	m := srv.Metrics()
	if m.Hits == 0 || m.Misses == 0 || m.HCacheLen == 0 {
		t.Fatalf("metrics look empty: %+v", m)
	}
	if m.HitRatio() <= 0 || m.HitRatio() > 1 {
		t.Fatalf("hit ratio %g", m.HitRatio())
	}
	if m.UptimeSeconds < 0 {
		t.Fatal("negative uptime")
	}

	// Non-GET methods are rejected.
	post, err := http.Post(ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", post.StatusCode)
	}
}
