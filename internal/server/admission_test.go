package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xclean"
)

// blockEngine is an Engine whose scans park until release is closed
// (or their context dies), so tests can hold a request in flight
// deterministically.
type blockEngine struct {
	entered chan struct{} // one send per scan that has started
	release chan struct{} // close to let parked scans finish
	// ignoreCtx parks scans on release alone, holding the admission
	// slot past any request deadline.
	ignoreCtx bool
}

func newBlockEngine() *blockEngine {
	return &blockEngine{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (e *blockEngine) Query(ctx context.Context, req xclean.Request) (xclean.Response, error) {
	e.entered <- struct{}{}
	done := []xclean.Suggestion{{Query: req.Query}}
	if e.ignoreCtx {
		<-e.release
		return xclean.Response{Suggestions: done}, nil
	}
	select {
	case <-e.release:
		return xclean.Response{Suggestions: done}, nil
	case <-ctx.Done():
		return xclean.Response{}, ctx.Err()
	}
}

func (e *blockEngine) Stats() xclean.IndexStats { return xclean.IndexStats{} }

func (e *blockEngine) Preview(s xclean.Suggestion, maxLen int) string { return "" }

func admissionServer(t *testing.T, eng Engine, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(eng, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// With one in-flight slot and no queue, a second concurrent request is
// shed: 429, Retry-After, the JSON error envelope, and a bumped sheds
// counter — while the admitted request completes normally.
func TestAdmissionShed429(t *testing.T) {
	eng := newBlockEngine()
	ts := admissionServer(t, eng, Config{MaxInflight: 1})

	firstStatus := make(chan int)
	go func() {
		resp, err := http.Get(ts.URL + "/suggest?q=one")
		if err != nil {
			firstStatus <- -1
			return
		}
		resp.Body.Close()
		firstStatus <- resp.StatusCode
	}()
	<-eng.entered // the first scan is parked in flight

	resp, body := get(t, ts.URL+"/suggest?q=two")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Errorf("shed body is not the JSON error envelope: %s (err=%v)", body, err)
	}

	close(eng.release)
	if st := <-firstStatus; st != http.StatusOK {
		t.Fatalf("admitted request finished with status %d", st)
	}

	_, body = get(t, ts.URL+"/metricz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.Sheds != 1 {
		t.Errorf("sheds=%d, want 1", m.Admission.Sheds)
	}
	if m.Admission.MaxInflight != 1 || m.Admission.MaxQueue != 0 {
		t.Errorf("bounds %d/%d echoed wrong", m.Admission.MaxInflight, m.Admission.MaxQueue)
	}
	if m.Admission.Inflight != 0 || m.Admission.QueueDepth != 0 {
		t.Errorf("gauges not drained: %+v", m.Admission)
	}
}

// A request beyond MaxInflight but within MaxQueue waits for the slot
// and is then served, not shed.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	eng := newBlockEngine()
	ts := admissionServer(t, eng, Config{MaxInflight: 1, MaxQueue: 1})

	status := make(chan int, 2)
	for _, q := range []string{"one", "two"} {
		go func(q string) {
			resp, err := http.Get(ts.URL + "/suggest?q=" + q)
			if err != nil {
				status <- -1
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}(q)
	}
	<-eng.entered // one request scanning; the other is queued (or about to be)

	// Wait until the second request is visibly parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, ts.URL+"/metricz")
		var m Metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		if m.Admission.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second request never queued: %+v", m.Admission)
		}
		time.Sleep(time.Millisecond)
	}

	close(eng.release)
	for i := 0; i < 2; i++ {
		if st := <-status; st != http.StatusOK {
			t.Fatalf("request %d finished with status %d", i, st)
		}
	}

	_, body := get(t, ts.URL+"/metricz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.Sheds != 0 {
		t.Errorf("queued request was shed: %+v", m.Admission)
	}
}

// RequestTimeout cancels a scan mid-flight: the engine sees its
// context die, the server answers 503 with Retry-After, and the
// cancelled-scan counter moves.
func TestRequestTimeoutCancelsScan(t *testing.T) {
	eng := newBlockEngine() // release is never closed: only the deadline can end the scan
	ts := admissionServer(t, eng, Config{RequestTimeout: 30 * time.Millisecond})

	resp, body := get(t, ts.URL+"/suggest?q=slow")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}

	_, body = get(t, ts.URL+"/metricz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.CancelledScans != 1 {
		t.Errorf("cancelledScans=%d, want 1", m.Admission.CancelledScans)
	}
	if m.Admission.RequestTimeoutMillis != 30 {
		t.Errorf("requestTimeoutMillis=%d, want 30", m.Admission.RequestTimeoutMillis)
	}
}

// A request that times out while waiting in the admission queue gets
// 503 without ever reaching the engine, and is not counted as a shed.
func TestAdmissionQueueWaitTimeout(t *testing.T) {
	eng := newBlockEngine()
	// The first scan must hold its slot past the second request's
	// deadline, or freeing the slot could race the queue timeout.
	eng.ignoreCtx = true
	ts := admissionServer(t, eng, Config{
		MaxInflight:    1,
		MaxQueue:       1,
		RequestTimeout: 40 * time.Millisecond,
	})

	first := make(chan struct{})
	go func() {
		resp, err := http.Get(ts.URL + "/suggest?q=one")
		if err == nil {
			resp.Body.Close()
		}
		close(first)
	}()
	<-eng.entered

	resp, body := get(t, ts.URL+"/suggest?q=two")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}

	_, body = get(t, ts.URL+"/metricz")
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Admission.Sheds != 0 {
		t.Errorf("queue-wait timeout counted as shed: %+v", m.Admission)
	}
	if len(eng.entered) != 0 {
		t.Error("timed-out request reached the engine")
	}

	close(eng.release) // let the parked first scan finish
	<-first
}

// Cache hits bypass admission entirely: a full server still answers
// cached queries.
func TestCacheHitsBypassAdmission(t *testing.T) {
	eng := newBlockEngine()
	ts := admissionServer(t, eng, Config{MaxInflight: 1, CacheSize: 8})

	// Warm the cache while the server is idle.
	done := make(chan struct{})
	go func() {
		resp, err := http.Get(ts.URL + "/suggest?q=warm")
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-eng.entered
	close(eng.release)
	<-done

	// Park a new scan so the only in-flight slot is taken...
	eng.release = make(chan struct{})
	blocked := make(chan struct{})
	go func() {
		resp, err := http.Get(ts.URL + "/suggest?q=other")
		if err == nil {
			resp.Body.Close()
		}
		close(blocked)
	}()
	<-eng.entered
	defer func() { close(eng.release); <-blocked }()

	// ...and the cached query must still be served, not shed.
	resp, body := get(t, ts.URL+"/suggest?q=warm")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached query under full admission: status %d: %s", resp.StatusCode, body)
	}
}
