package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"xclean/internal/cluster"
	"xclean/internal/qlog"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, "application/json", b)
}

// postShard POSTs req to a shard in the binary wire form.
func postShard(t *testing.T, url string, req cluster.BatchRequest) (*http.Response, []byte) {
	t.Helper()
	return postBody(t, url, cluster.ContentType, cluster.AppendBatchRequest(nil, &req))
}

func postBody(t *testing.T, url, contentType string, b []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// POST /shard/suggest answers a whole batch in one round-trip, entry
// for entry identical to the same query sent alone as a body of one;
// GET is not a shard transport.
func TestShardSuggestBatch(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{}).Handler())
	t.Cleanup(ts.Close)
	queries := []string{"rose fpga", "power point", "wirless"}

	shardPost := func(queries []string) *cluster.BatchResponse {
		t.Helper()
		resp, body := postShard(t, ts.URL+"/shard/suggest", cluster.BatchRequest{Queries: queries})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", queries, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != cluster.ContentType {
			t.Fatalf("Content-Type %q, want %q", ct, cluster.ContentType)
		}
		br, err := cluster.DecodeBatchResponse(string(body))
		if err != nil {
			t.Fatal(err)
		}
		if br.Version != cluster.WireVersion || len(br.Results) != len(queries) {
			t.Fatalf("envelope = version %d, %d results; want %d results at version %d",
				br.Version, len(br.Results), len(queries), cluster.WireVersion)
		}
		return br
	}
	br := shardPost(queries)
	for i, q := range queries {
		e := br.Results[i]
		if e.Query != q || e.Error != "" {
			t.Fatalf("entry %d = %+v, want clean entry for %q", i, e, q)
		}
		single := shardPost([]string{q}).Results[0]
		if single.Query != q || !reflect.DeepEqual(single.PartialSet, e.PartialSet) {
			t.Fatalf("%q: batch entry %d candidates vs body-of-one %d",
				q, len(e.Candidates), len(single.Candidates))
		}
	}

	resp, body := get(t, ts.URL+"/shard/suggest?q=rose+fpga")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /shard/suggest: status %d, Allow %q: %s",
			resp.StatusCode, resp.Header.Get("Allow"), body)
	}

	// Version and size validation reject bad batches up front. A body
	// in the version-2 JSON envelope is told which versions disagree.
	resp, body = postJSON(t, ts.URL+"/shard/suggest", map[string]any{
		"version": 2,
		"queries": queries,
	})
	if want := fmt.Sprintf("wire version 2 (this shard speaks %d)", cluster.WireVersion); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), want) {
		t.Fatalf("v2 JSON batch: status %d: %s (want 400 naming %q)", resp.StatusCode, body, want)
	}
	future := cluster.AppendBatchRequest(nil, &cluster.BatchRequest{Queries: queries})
	future[len("XCW")]++ // the version uvarint follows the magic
	resp, body = postBody(t, ts.URL+"/shard/suggest", cluster.ContentType, future)
	if want := fmt.Sprintf("wire version %d (this shard speaks %d)", cluster.WireVersion+1, cluster.WireVersion); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), want) {
		t.Fatalf("wrong-version batch: status %d: %s (want 400 naming %q)", resp.StatusCode, body, want)
	}
	resp, body = postBody(t, ts.URL+"/shard/suggest", cluster.ContentType, future[:2])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short batch: status %d: %s", resp.StatusCode, body)
	}
	big := make([]string, cluster.MaxBatchQueries+1)
	for i := range big {
		big[i] = "q"
	}
	resp, body = postShard(t, ts.URL+"/shard/suggest", cluster.BatchRequest{Queries: big})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postShard(t, ts.URL+"/shard/suggest", cluster.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", resp.StatusCode, body)
	}
}

// POST /suggest on a coordinator fans the whole batch out, agrees with
// the GET path query for query, and shares the GET path's cache (a
// batch warms it; a warm entry short-circuits the batch).
func TestCoordinatorSuggestBatch(t *testing.T) {
	ts := coordServer(t, Config{CacheSize: 16})
	queries := []string{"rose fpga", "power point"}

	resp, body := postJSON(t, ts.URL+"/suggest", BatchSuggestBody{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var bs BatchSuggestResponse
	if err := json.Unmarshal(body, &bs); err != nil {
		t.Fatal(err)
	}
	if bs.Partial || len(bs.Results) != len(queries) {
		t.Fatalf("batch = partial:%v %d results: %s", bs.Partial, len(bs.Results), body)
	}
	if len(bs.Shards) == 0 {
		t.Fatalf("cold batch reported no shard statuses: %s", body)
	}
	for i, q := range queries {
		_, single := get(t, ts.URL+"/suggest?q="+url.QueryEscape(q)+"&debug=1")
		var sr SuggestResponse
		if err := json.Unmarshal(single, &sr); err != nil {
			t.Fatal(err)
		}
		b := bs.Results[i]
		if b.Query != q || len(b.Suggestions) != len(sr.Suggestions) {
			t.Fatalf("%q: batch %d suggestions vs GET %d: %s",
				q, len(b.Suggestions), len(sr.Suggestions), body)
		}
		for j := range sr.Suggestions {
			bj, gj := b.Suggestions[j], sr.Suggestions[j]
			if bj.Query != gj.Query || bj.Score != gj.Score ||
				bj.ResultType != gj.ResultType || bj.Entities != gj.Entities {
				t.Fatalf("%q rank %d: batch %+v vs GET %+v", q, j, bj, gj)
			}
		}
	}

	// The batch populated the shared cache: a repeat batch is all hits
	// (no fan-out, so no shard statuses).
	resp, body = postJSON(t, ts.URL+"/suggest", BatchSuggestBody{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	var warm BatchSuggestResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if len(warm.Shards) != 0 {
		t.Fatalf("warm batch still fanned out: %s", body)
	}
	if len(warm.Results) != len(queries) || len(warm.Results[0].Suggestions) == 0 {
		t.Fatalf("warm batch results: %s", body)
	}

	// Malformed batches are rejected with the JSON error envelope.
	for name, bad := range map[string]BatchSuggestBody{
		"empty batch": {},
		"negative k":  {Queries: queries, K: -3},
	} {
		resp, body = postJSON(t, ts.URL+"/suggest", bad)
		var env struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &env) != nil || env.Error == "" {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
	}
}

// Every answered entry of a shard body enters the slow log as its own
// Shard record, carrying the forwarded request ID.
func TestShardSlowLogPerEntry(t *testing.T) {
	var slow bytes.Buffer
	ts := httptest.NewServer(New(testEngine(t), Config{
		SlowLog: qlog.NewSlowLog(&slow, time.Nanosecond), // everything is slow
	}).Handler())
	t.Cleanup(ts.Close)
	queries := []string{"rose fpga", "power point"}
	b := cluster.AppendBatchRequest(nil, &cluster.BatchRequest{Queries: queries})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/shard/suggest", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "coord-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != len(queries) {
		t.Fatalf("%d slow records for %d entries:\n%s", len(lines), len(queries), slow.String())
	}
	for i, line := range lines {
		var rec qlog.SlowRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.Shard || rec.Query != queries[i] || rec.RequestID != "coord-7" || rec.DurationNs <= 0 {
			t.Errorf("record %d = %+v, want a Shard record for %q", i, rec, queries[i])
		}
	}
}

// POST /suggest on a standalone server stays 405: batching is a
// coordinator feature.
func TestSuggestBatchStandalone405(t *testing.T) {
	ts := httptest.NewServer(New(testEngine(t), Config{}).Handler())
	t.Cleanup(ts.Close)
	resp, _ := postJSON(t, ts.URL+"/suggest", BatchSuggestBody{Queries: []string{"q"}})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("standalone POST /suggest: status %d, want 405", resp.StatusCode)
	}
}

// /readyz with replica sets: a shard keeps its coverage while any
// replica lives; it is the loss of the last replica of any shard that
// flips the coordinator unready.
func TestReadyzReplicaCoverage(t *testing.T) {
	shard := httptest.NewServer(New(testEngine(t), Config{}).Handler())
	t.Cleanup(shard.Close)
	spare := httptest.NewServer(shard.Config.Handler)
	t.Cleanup(spare.Close)
	coord, err := cluster.New(cluster.Config{
		Shards:  [][]cluster.Endpoint{{cluster.Endpoint(shard.URL), cluster.Endpoint(spare.URL)}},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(nil, Config{Cluster: coord}).Handler())
	t.Cleanup(ts.Close)

	expect := func(wantCode, wantUp int) ReadyResponse {
		t.Helper()
		resp, body := get(t, ts.URL+"/readyz")
		if resp.StatusCode != wantCode {
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantCode, body)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.ShardsUp != wantUp || rr.ShardsTotal != 1 {
			t.Fatalf("coverage %d/%d, want %d/1: %s", rr.ShardsUp, rr.ShardsTotal, wantUp, body)
		}
		return rr
	}
	expect(http.StatusOK, 1)
	shard.Close()
	expect(http.StatusOK, 1) // the spare still covers the shard
	spare.Close()
	if rr := expect(http.StatusServiceUnavailable, 0); rr.Reason == "" {
		t.Fatal("unready with no reason")
	}
}
