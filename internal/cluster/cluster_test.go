// Package cluster_test exercises the coordinator over real HTTP shard
// servers (external test package: server imports cluster, so these
// tests import both).
package cluster_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"xclean"
	"xclean/internal/cluster"
	"xclean/internal/dataset"
	"xclean/internal/server"
)

// clusterFixture is a standalone engine plus n shard servers and a
// coordinator fanning over them.
type clusterFixture struct {
	full    *xclean.Engine
	servers []*httptest.Server
	coord   *cluster.Coordinator
	queries []string
}

func newFixture(t testing.TB, shards int, cfg cluster.Config) *clusterFixture {
	t.Helper()
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 29, Articles: 300})
	opts := xclean.Options{MaxErrors: 2, Accumulators: -1}
	full := xclean.FromTree(c.Tree, opts)

	f := &clusterFixture{full: full, queries: append(c.SampleQueries(30, 6),
		"databse systems", "algoritm")}
	for i := 0; i < shards; i++ {
		sh, err := full.ShardEngine(i, shards)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		srv := httptest.NewServer(server.New(sh, server.Config{}).Handler())
		t.Cleanup(srv.Close)
		f.servers = append(f.servers, srv)
		cfg.Shards = append(cfg.Shards, []cluster.Endpoint{cluster.Endpoint(srv.URL)})
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	return f
}

// hangUntilGone is a shard that never answers. Like a real shard it
// reads the request body first: the HTTP server notices a client
// hang-up only once the body is consumed.
func hangUntilGone(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
}

// TestClusterHTTPParity: 2 and 4 shards served over HTTP must
// reproduce the standalone ranking exactly (scores within 1e-12
// relative).
func TestClusterHTTPParity(t *testing.T) {
	for _, n := range []int{2, 4} {
		f := newFixture(t, n, cluster.Config{})
		for _, q := range f.queries {
			ctx := fmt.Sprintf("shards=%d query=%q", n, q)
			want := f.full.Suggest(q)
			res, err := f.coord.Suggest(context.Background(), q, "", "", nil)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if res.Partial {
				t.Fatalf("%s: healthy cluster answered partial\nshards: %+v", ctx, res.Shards)
			}
			if len(res.Suggestions) != len(want) {
				t.Fatalf("%s: %d vs %d suggestions\n got=%v\nwant=%v",
					ctx, len(res.Suggestions), len(want), res.Suggestions, want)
			}
			for i := range want {
				g, w := res.Suggestions[i], want[i]
				if g.Query() != w.Query || g.ResultType != w.ResultType ||
					g.Entities != w.Entities || g.EditDistance != w.EditDistance ||
					g.Witness != w.Witness {
					t.Fatalf("%s rank %d:\n got=%+v\nwant=%+v", ctx, i, g, w)
				}
				if math.Abs(g.Score-w.Score) > 1e-12*math.Max(math.Abs(w.Score), 1e-300) {
					t.Fatalf("%s rank %d: score %g vs %g", ctx, i, g.Score, w.Score)
				}
			}
		}
	}
}

// TestClusterKillShard: a dead shard degrades the answer to
// partial:true with the surviving shards' suggestions — never an
// error, and well within the shard deadline.
func TestClusterKillShard(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{Timeout: 5 * time.Second})
	q := f.queries[0]
	f.servers[1].Close()

	start := time.Now()
	res, err := f.coord.Suggest(context.Background(), q, "", "", nil)
	if err != nil {
		t.Fatalf("degraded cluster errored: %v", err)
	}
	if took := time.Since(start); took > 4*time.Second {
		t.Fatalf("degraded answer took %v", took)
	}
	if !res.Partial {
		t.Fatalf("dead shard not reported partial: %+v", res.Shards)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("surviving shard contributed no suggestions")
	}
	states := map[string]int{}
	for _, s := range res.Shards {
		states[s.State]++
	}
	if states["ok"] != 1 || states["ok"]+states["error"]+states["timeout"] != 2 {
		t.Fatalf("shard states = %+v", res.Shards)
	}
}

// TestClusterHedgedRetry: a shard failing exactly once answers via the
// hedged retry — final state ok, Hedged set, full (non-partial)
// answer.
func TestClusterHedgedRetry(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{})
	var failOnce atomic.Bool
	failOnce.Store(true)
	inner := f.servers[1].Config.Handler
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failOnce.CompareAndSwap(true, false) {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	coord, err := cluster.New(cluster.Config{
		Shards:  cluster.SingleReplica(f.servers[0].URL, flaky.URL),
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Suggest(context.Background(), f.queries[0], "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("hedged retry did not recover: %+v", res.Shards)
	}
	s := res.Shards[1]
	if s.State != "ok" || !s.Hedged {
		t.Fatalf("flaky shard status = %+v, want ok+hedged", s)
	}
	for _, m := range coord.MetricsSnapshot() {
		if m.Shard == s.Shard && m.Hedges == 0 {
			t.Fatalf("hedge not counted in metrics: %+v", m)
		}
	}
}

// TestClusterAllShardsDown: every shard unreachable still yields a
// well-formed (empty, partial) answer rather than an error.
func TestClusterAllShardsDown(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{Timeout: 2 * time.Second})
	f.servers[0].Close()
	f.servers[1].Close()

	res, err := f.coord.Suggest(context.Background(), f.queries[0], "", "", nil)
	if err != nil {
		t.Fatalf("all-down cluster errored: %v", err)
	}
	if !res.Partial || len(res.Suggestions) != 0 {
		t.Fatalf("all-down answer = %+v", res)
	}
	for _, s := range res.Shards {
		if s.State == "ok" {
			t.Fatalf("dead shard reported ok: %+v", s)
		}
	}
}

// TestClusterDeadlinePropagation: the caller's context deadline caps
// the fan-out even below the configured shard timeout; a hanging
// shard comes back as a timeout, not a hang.
func TestClusterDeadlinePropagation(t *testing.T) {
	f := newFixture(t, 1, cluster.Config{})
	hang := httptest.NewServer(http.HandlerFunc(hangUntilGone))
	t.Cleanup(hang.Close)

	coord, err := cluster.New(cluster.Config{
		Shards:  cluster.SingleReplica(f.servers[0].URL, hang.URL),
		Timeout: 30 * time.Second, // deliberately far above the ctx deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := coord.Suggest(ctx, f.queries[0], "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("fan-out ignored ctx deadline: took %v", took)
	}
	if !res.Partial {
		t.Fatalf("hanging shard not reported: %+v", res.Shards)
	}
	if s := res.Shards[1]; s.State != "timeout" {
		t.Fatalf("hanging shard state = %+v, want timeout", s)
	}
}

// TestClusterHealth: the probe reports per-shard liveness.
func TestClusterHealth(t *testing.T) {
	f := newFixture(t, 2, cluster.Config{Timeout: 2 * time.Second})
	f.servers[1].Close()
	hs := f.coord.Health(context.Background())
	if len(hs) != 2 {
		t.Fatalf("%d health entries", len(hs))
	}
	if !hs[0].Healthy || hs[1].Healthy {
		t.Fatalf("health = %+v", hs)
	}
	if hs[1].Error == "" {
		t.Fatal("dead shard reported no error")
	}
}
