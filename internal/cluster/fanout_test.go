// Fan-out lifecycle tests: attempt-state taxonomy (abandoned vs
// timeout vs canceled), goroutine hygiene, replica failover, and
// batched round-trip parity.
package cluster_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xclean/internal/cluster"
	"xclean/internal/obs"
)

// hangFirstServer wraps inner: the first request hangs until the
// client hangs up; every later request is served normally.
func hangFirstServer(t *testing.T, inner http.Handler) *httptest.Server {
	t.Helper()
	var first atomic.Bool
	first.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(true, false) {
			hangUntilGone(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestAbandonedAttemptSpan (regression): when the hedged retry wins
// the leg, the still-in-flight first attempt is a healthy race loser.
// Its span must read "abandoned" in the stitched waterfall — not
// "timeout" — and the replica's timeout counter must not move (only
// real deadline deaths count).
func TestAbandonedAttemptSpan(t *testing.T) {
	f := newFixture(t, 1, cluster.Config{})
	slow := hangFirstServer(t, f.servers[0].Config.Handler)

	coord, err := cluster.New(cluster.Config{
		Shards:     cluster.SingleReplica(slow.URL),
		Timeout:    5 * time.Second,
		HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &obs.TraceContext{TraceID: obs.NewTraceID(), Parent: obs.NewSpanID()}
	res, err := coord.Suggest(context.Background(), f.queries[0], "", "", tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("hedge did not recover: %+v", res.Shards)
	}
	st := res.Shards[0]
	if !st.Hedged || len(st.Attempts) != 2 {
		t.Fatalf("shard status = %+v, want 2 attempts with a hedge", st)
	}
	if st.Attempts[0].State != "abandoned" || st.Attempts[1].State != "ok" {
		t.Fatalf("attempt states = %q/%q, want abandoned/ok",
			st.Attempts[0].State, st.Attempts[1].State)
	}
	if len(res.Spans) != 2 {
		t.Fatalf("%d attempt spans, want 2", len(res.Spans))
	}
	byAttempt := map[string]*obs.SpanNode{}
	for _, sp := range res.Spans {
		if sp.Name != "shard.attempt" {
			t.Fatalf("span name %q, want shard.attempt", sp.Name)
		}
		byAttempt[sp.Attrs["attempt"]] = sp
	}
	if sp := byAttempt["0"]; sp == nil || sp.Status != "abandoned" || sp.Error != "" {
		t.Fatalf("loser span = %+v, want status abandoned with no error", sp)
	}
	if sp := byAttempt["1"]; sp == nil || sp.Status != "" || sp.Attrs["hedge"] != "true" {
		t.Fatalf("winner span = %+v, want ok hedge span", sp)
	}
	for _, m := range coord.MetricsSnapshot() {
		if m.Timeouts != 0 {
			t.Fatalf("abandoned race loser counted as timeout: %+v", m)
		}
	}
}

// TestCanceledVsTimeout: an attempt still in flight when the context
// dies is classified by *why* the context died — the fan-out budget
// expiring is "timeout", the caller hanging up is "canceled" — in the
// shard state, the attempt state, and the per-replica counters.
func TestCanceledVsTimeout(t *testing.T) {
	cases := []struct {
		name  string
		ctx   func() (context.Context, context.CancelFunc)
		state string
	}{
		{
			name: "deadline",
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 200*time.Millisecond)
			},
			state: "timeout",
		},
		{
			name: "hangup",
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(200 * time.Millisecond)
					cancel()
				}()
				return ctx, cancel
			},
			state: "canceled",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hang := httptest.NewServer(http.HandlerFunc(hangUntilGone))
			t.Cleanup(hang.Close)
			coord, err := cluster.New(cluster.Config{
				Shards:     cluster.SingleReplica(hang.URL),
				Timeout:    30 * time.Second, // far above the ctx death
				HedgeAfter: 25 * time.Hour,   // keep the leg single-attempt
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := tc.ctx()
			defer cancel()
			res, err := coord.Suggest(ctx, "query", "", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial {
				t.Fatalf("hanging shard not partial: %+v", res)
			}
			st := res.Shards[0]
			if st.State != tc.state {
				t.Fatalf("shard state = %q, want %q (%+v)", st.State, tc.state, st)
			}
			if len(st.Attempts) != 1 || st.Attempts[0].State != tc.state {
				t.Fatalf("attempts = %+v, want one %q attempt", st.Attempts, tc.state)
			}
			m := coord.MetricsSnapshot()[0]
			wantTimeouts, wantCanceled := int64(0), int64(0)
			if tc.state == "timeout" {
				wantTimeouts = 1
			} else {
				wantCanceled = 1
			}
			if m.Timeouts != wantTimeouts || m.Canceled != wantCanceled {
				t.Fatalf("%s: counters timeouts=%d canceled=%d, want %d/%d",
					tc.name, m.Timeouts, m.Canceled, wantTimeouts, wantCanceled)
			}
		})
	}
}

// TestNoGoroutineLeak: a burst of requests that all force a hedge and
// abandon an in-flight attempt must leave no goroutine behind once the
// per-request contexts are done (the abandoned attempts drain into the
// leg's buffered channel and exit).
func TestNoGoroutineLeak(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(hangUntilGone))
	t.Cleanup(hang.Close)
	coord, err := cluster.New(cluster.Config{
		Shards:     cluster.SingleReplica(hang.URL),
		Timeout:    150 * time.Millisecond,
		HedgeAfter: 20 * time.Millisecond, // every request hedges, both attempts hang
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := coord.Suggest(context.Background(), fmt.Sprintf("q%d", i), "", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Abandoned attempt goroutines die with their per-request context;
	// give the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d -> %d after forced-hedge burst\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaFailover is the in-process version of the replica-smoke
// drill: every shard has two replicas over the same index; killing one
// replica of each shard must not produce a single partial answer, and
// scores must stay identical to the standalone engine.
func TestReplicaFailover(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{})
	topo := make([][]cluster.Endpoint, len(f.servers))
	var spares []*httptest.Server
	for i, primary := range f.servers {
		spare := httptest.NewServer(primary.Config.Handler)
		t.Cleanup(spare.Close)
		spares = append(spares, spare)
		topo[i] = []cluster.Endpoint{cluster.Endpoint(primary.URL), cluster.Endpoint(spare.URL)}
	}
	coord, err := cluster.New(cluster.Config{
		Shards:       topo,
		Timeout:      5 * time.Second,
		HedgeAfter:   100 * time.Millisecond,
		FailCooldown: 10 * time.Minute, // one failed attempt demotes for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries := f.queries
	if len(checkQueries) > 10 {
		checkQueries = checkQueries[:10]
	}
	check := func(phase string) {
		for _, q := range checkQueries {
			want := f.full.Suggest(q)
			res, err := coord.Suggest(context.Background(), q, "", "", nil)
			if err != nil {
				t.Fatalf("%s %q: %v", phase, q, err)
			}
			if res.Partial {
				t.Fatalf("%s %q: partial answer with a live replica per shard: %+v",
					phase, q, res.Shards)
			}
			if len(res.Suggestions) != len(want) {
				t.Fatalf("%s %q: %d vs %d suggestions", phase, q, len(res.Suggestions), len(want))
			}
			for i := range want {
				g, w := res.Suggestions[i], want[i]
				if g.Query() != w.Query ||
					math.Abs(g.Score-w.Score) > 1e-12*math.Max(math.Abs(w.Score), 1e-300) {
					t.Fatalf("%s %q rank %d: %+v vs %+v", phase, q, i, g, w)
				}
			}
		}
	}
	check("healthy")
	// Kill one replica of each shard (the primaries); the survivors
	// hold the full index, so nothing may degrade.
	for _, primary := range f.servers {
		primary.Close()
	}
	check("one replica down")
	for _, m := range coord.MetricsSnapshot() {
		if m.Replica == "" {
			t.Fatalf("metrics entry without replica identity: %+v", m)
		}
	}
	_ = spares
}

// TestSuggestBatchParity: a batched fan-out must return exactly the
// standalone engine's answer for every query, and a batch repeated
// against a degraded cluster degrades per query rather than erroring.
func TestSuggestBatchParity(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{})
	queries := f.queries
	if len(queries) > 12 {
		queries = queries[:12]
	}
	ans, err := f.coord.SuggestBatch(context.Background(), queries, "", "batch-1")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Partial {
		t.Fatalf("healthy batch partial: %+v", ans.Shards)
	}
	if len(ans.Queries) != len(queries) {
		t.Fatalf("%d answers for %d queries", len(ans.Queries), len(queries))
	}
	for qi, q := range queries {
		want := f.full.Suggest(q)
		got := ans.Queries[qi]
		if got.Query != q || got.Partial {
			t.Fatalf("answer %d = %+v, want complete answer for %q", qi, got, q)
		}
		if len(got.Suggestions) != len(want) {
			t.Fatalf("%q: %d vs %d suggestions", q, len(got.Suggestions), len(want))
		}
		for i := range want {
			g, w := got.Suggestions[i], want[i]
			if g.Query() != w.Query || g.ResultType != w.ResultType ||
				g.Entities != w.Entities || g.EditDistance != w.EditDistance {
				t.Fatalf("%q rank %d:\n got=%+v\nwant=%+v", q, i, g, w)
			}
			if math.Abs(g.Score-w.Score) > 1e-12*math.Max(math.Abs(w.Score), 1e-300) {
				t.Fatalf("%q rank %d: score %g vs %g", q, i, g.Score, w.Score)
			}
		}
	}

	// Oversized batches are rejected up front.
	big := make([]string, cluster.MaxBatchQueries+1)
	for i := range big {
		big[i] = "q"
	}
	if _, err := f.coord.SuggestBatch(context.Background(), big, "", ""); err == nil {
		t.Fatal("oversized batch accepted")
	}

	// A dead shard degrades every query of the batch to partial but
	// still answers from the survivor.
	f.servers[1].Close()
	ans, err = f.coord.SuggestBatch(context.Background(), queries[:3], "", "batch-2")
	if err != nil {
		t.Fatalf("degraded batch errored: %v", err)
	}
	if !ans.Partial {
		t.Fatalf("dead shard not partial: %+v", ans.Shards)
	}
	for _, qa := range ans.Queries {
		if !qa.Partial {
			t.Fatalf("query %q not marked partial with a dead shard", qa.Query)
		}
	}
}

// corruptFirstServer wraps inner: the first shard response body is
// rewritten by mangle before it reaches the coordinator; every later
// response is served as is.
func corruptFirstServer(t *testing.T, inner http.Handler, mangle func([]byte) []byte) *httptest.Server {
	t.Helper()
	var first atomic.Bool
	first.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !first.CompareAndSwap(true, false) {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", cluster.ContentType)
		w.Write(mangle(rec.Body.Bytes()))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// reencoded decodes a shard response body, edits it, and encodes it
// again.
func reencoded(t *testing.T, edit func(*cluster.BatchResponse)) func([]byte) []byte {
	return func(body []byte) []byte {
		br, err := cluster.DecodeBatchResponse(string(body))
		if err != nil {
			t.Errorf("shard body: %v", err)
			return body
		}
		edit(br)
		out, err := cluster.AppendBatchResponse(nil, br)
		if err != nil {
			t.Errorf("re-encode: %v", err)
		}
		return out
	}
}

// TestMalformedShardReplyHedges: a shard response whose entries are
// out of order, in which every entry failed, that is cut short, or
// that speaks the version-2 JSON envelope fails its attempt; the leg
// hedges and the answer is the standalone one — never another query's
// partials merged under the wrong query.
func TestMalformedShardReplyHedges(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{})
	queries := f.queries[:3]
	for name, tc := range map[string]struct {
		mangle  func([]byte) []byte
		wantErr string
	}{
		"reversed": {
			mangle:  reencoded(t, func(br *cluster.BatchResponse) { slices.Reverse(br.Results) }),
			wantErr: "entry 0 answers",
		},
		"every entry failed": {
			mangle: reencoded(t, func(br *cluster.BatchResponse) {
				for i := range br.Results {
					br.Results[i].Error = "flush first"
				}
			}),
			wantErr: "flush first",
		},
		"short": {
			mangle:  func(body []byte) []byte { return body[:len(body)/2] },
			wantErr: "bad response",
		},
		"version 2 JSON": {
			mangle: func([]byte) []byte {
				return []byte(`{"version":2,"results":[{"query":"x"}]}`)
			},
			wantErr: fmt.Sprintf("wire version 2 (coordinator speaks %d)", cluster.WireVersion),
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := corruptFirstServer(t, f.servers[1].Config.Handler, tc.mangle)
			coord, err := cluster.New(cluster.Config{
				Shards:  cluster.SingleReplica(f.servers[0].URL, bad.URL),
				Timeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			ans, err := coord.SuggestBatch(context.Background(), queries, "", "")
			if err != nil {
				t.Fatal(err)
			}
			s := ans.Shards[1]
			if ans.Partial || s.State != "ok" || !s.Hedged || len(s.Attempts) != 2 ||
				s.Attempts[0].State != "error" || !strings.Contains(s.Attempts[0].Error, tc.wantErr) {
				t.Fatalf("partial=%v, mangled shard status = %+v", ans.Partial, s)
			}
			for qi, q := range queries {
				want := f.full.Suggest(q)
				got := ans.Queries[qi].Suggestions
				if len(got) != len(want) {
					t.Fatalf("%q: %d vs %d suggestions", q, len(got), len(want))
				}
				for i := range want {
					if got[i].Query() != want[i].Query ||
						math.Abs(got[i].Score-want[i].Score) > 1e-12*math.Max(math.Abs(want[i].Score), 1e-300) {
						t.Fatalf("%q rank %d: %+v vs %+v", q, i, got[i], want[i])
					}
				}
			}
		})
	}
}
