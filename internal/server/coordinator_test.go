package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xclean"
	"xclean/internal/cluster"
	"xclean/internal/obs"
)

// coordServer stands up one real shard (testEngine over HTTP) and a
// coordinator server fanning out to it.
func coordServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	shard := httptest.NewServer(New(testEngine(t), Config{}).Handler())
	t.Cleanup(shard.Close)
	coord, err := cluster.New(cluster.Config{
		Shards:  cluster.SingleReplica(shard.URL),
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = coord
	ts := httptest.NewServer(New(nil, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// The coordinator cannot run the space-error search (shapes change the
// keyword partition, which the scatter-gather wire format does not
// carry): /suggest?spaces=1 answers 501 with the standard JSON error
// envelope, not a plain-text error.
func TestCoordinatorSpacesNotImplementedJSON(t *testing.T) {
	ts := coordServer(t, Config{})
	resp, body := get(t, ts.URL+"/suggest?q=power+point&spaces=1")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("501 body is not JSON: %s (%v)", body, err)
	}
	if env.Error == "" {
		t.Errorf("501 envelope has no error field: %s", body)
	}
}

// debug=1 bypasses the coordinator cache symmetrically with the
// standalone handler: the read (per-shard statuses must reflect a real
// fan-out) and the write (a debug run must not populate entries).
func TestCoordinatorDebugBypassesCache(t *testing.T) {
	ts := coordServer(t, Config{CacheSize: 8})

	// A cold debug run fans out (shards present) and must not write.
	_, body := get(t, ts.URL+"/suggest?q=rose+fpga&debug=1")
	var sr SuggestResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Shards) == 0 {
		t.Fatalf("debug fan-out reported no shard statuses: %s", body)
	}
	_, body = get(t, ts.URL+"/metricz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.CacheEntries != 0 {
		t.Fatalf("coordinator debug=1 wrote the cache: %d entries", m.CacheEntries)
	}

	// Warm the cache with a regular request, confirm the next regular
	// request is a hit (no shard statuses), then confirm debug still
	// fans out for real.
	get(t, ts.URL+"/suggest?q=rose+fpga")
	_, body = get(t, ts.URL+"/suggest?q=rose+fpga")
	var hit SuggestResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if len(hit.Shards) != 0 {
		t.Fatalf("second regular request was not served from the cache: %s", body)
	}
	_, body = get(t, ts.URL+"/suggest?q=rose+fpga&debug=1")
	var dbg SuggestResponse
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Shards) == 0 {
		t.Errorf("debug=1 was served from the coordinator cache: %s", body)
	}
}

// A shard whose forwarded deadline is already dead answers 503 (the
// scan never starts) — the shard handler honors the coordinator's
// deadline inside the scan.
func TestShardSuggestHonorsDeadline(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{RequestTimeout: time.Nanosecond}).Handler())
	t.Cleanup(ts.Close)
	resp, body := postShard(t, ts.URL+"/shard/suggest", cluster.BatchRequest{Queries: []string{"rose fpga"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
	_, body = get(t, ts.URL+"/metricz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.CancelledScans == 0 {
		t.Error("cancelled shard scan not counted")
	}
}

// blockShard is a shard engine whose partial scans park until their
// context dies.
type blockShard struct{ *blockEngine }

func (e blockShard) SuggestPartialsContext(ctx context.Context, q string, explain bool) (xclean.PartialSet, []obs.Span, error) {
	e.entered <- struct{}{}
	<-ctx.Done()
	return xclean.PartialSet{}, nil, ctx.Err()
}

// A coordinator hanging up mid-scan cancels the shard's scan: the
// handler consumes the POST body before scanning, which is what lets
// the HTTP server notice the disconnect and cancel the request context.
func TestShardScanStopsWhenCoordinatorHangsUp(t *testing.T) {
	eng := blockShard{newBlockEngine()}
	ts := admissionServer(t, eng, Config{})
	b := cluster.AppendBatchRequest(nil, &cluster.BatchRequest{Queries: []string{"rose fpga"}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/shard/suggest", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-eng.entered
	cancel()
	<-done
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		_, body := get(t, ts.URL+"/metricz")
		var m Metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.Admission.CancelledScans == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard scan still running after the coordinator hung up: %+v", m.Admission)
		}
	}
}
