// Package cluster implements the scatter-gather serving layer: a
// coordinator that fans a suggestion query out over entity-partitioned
// shard servers and merges their partial scores into the global top-k.
//
// A shard is an ordinary xserve node serving an index built with
// `xclean -save-index -shard i/n` (invindex.Index.ShardEntities): it
// holds the posting lists and entity tables of a contiguous range of
// top-level entity roots plus every collection-global statistic, and
// answers POST /shard/suggest with its γ-bounded partial accumulator
// table (core.PartialSet) per query in a versioned binary body (see
// wire.go: variant and path strings once per entry, candidates as
// indexes into them, sums as exact float64 bits). The
// coordinator adds per-candidate partial sums and per-type entity
// counts across shards (Eq. 8 of the paper is additive over disjoint
// entities), recomputes error-model weights once from the union of the
// shards' variant hits, and re-ranks to top-k — see core.MergePartials
// for the correctness argument.
//
// Each shard is served by a *replica set* (Config.Shards is a list of
// replica lists): the fan-out leg picks its first target by
// consistent-hash affinity tempered by least-loaded scoring, and
// hedges one retry to a different replica (fired early when the first
// attempt fails fast, or after HedgeAfter for stragglers) — see
// replica.go for the routing policy. The fan-out propagates the
// caller's context deadline as the per-attempt HTTP timeout and
// degrades gracefully: only when every attempted replica of a shard
// fails does the coordinator return the surviving shards' merged
// answer marked Partial with per-shard statuses, rather than an error
// or a hang.
//
// There is one shard transport: a single query (Suggest) is a batch of
// one, and SuggestBatch ships many queries per shard round-trip so
// high-fan-out coordinators amortize connection and framing cost —
// see batch.go for the request and response, wire.go for their
// encoding.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"xclean/internal/core"
	"xclean/internal/obs"
)

// WireVersion is the version of the /shard/suggest wire
// (BatchRequest/BatchResponse, encoded as wire.go describes). Both ends
// reject a body speaking a different version — including the JSON
// envelope of version 2 and earlier, whose version they read and name —
// instead of silently mis-merging or dropping fields.
const WireVersion = 3

// Config configures a Coordinator.
type Config struct {
	// Shards lists each shard's replica set in shard order (shard
	// order is summation order; keep it stable so merged scores are
	// reproducible). Every replica of shard i must serve the same
	// entity-range index; replica order within a shard only names them
	// (r0, r1, ...). Use SingleReplica or ParseTopology to build it.
	Shards [][]Endpoint
	// Corpus, when set, is forwarded as ?corpus= on every fan-out (for
	// shard servers that serve multiple corpora through the catalog).
	Corpus string
	// Beta is the error-model penalty β; it must match the shards'
	// engine configuration (0 = the shared default).
	Beta float64
	// K is the number of suggestions returned (0 = 10).
	K int
	// Timeout bounds each coordinated request (default 2s). The
	// effective per-request budget is min(Timeout, caller deadline).
	Timeout time.Duration
	// HedgeAfter is how long to wait on a shard before hedging the one
	// retry (default Timeout/4). A fast failure hedges immediately.
	HedgeAfter time.Duration
	// LoadFactor is how much worse (×) the consistent-hash affinity
	// replica's load score may be than the least-loaded replica's
	// before the leg routes around it (0 = 2.0).
	LoadFactor float64
	// FailCooldown is how long a replica whose attempt just failed is
	// demoted to the back of every preference order (0 = 1s).
	FailCooldown time.Duration
	// Client is the HTTP client for fan-out (default: a dedicated
	// keep-alive client).
	Client *http.Client
	// Logger receives shard-failure logs (default slog.Default).
	Logger *slog.Logger
}

// AttemptStatus reports one fan-out attempt against one shard replica
// — the first try or the hedged retry — so a partial or slow answer is
// diagnosable from the response envelope alone.
type AttemptStatus struct {
	// Attempt is the ordinal (0 = first try, 1 = hedged retry).
	Attempt int `json:"attempt"`
	// Replica names the replica this attempt targeted.
	Replica string `json:"replica,omitempty"`
	// Hedge marks the hedged retry.
	Hedge bool `json:"hedge,omitempty"`
	// State classifies the attempt's end:
	//
	//	"ok"        answered and won the leg
	//	"error"     returned an error (HTTP failure, bad envelope)
	//	"timeout"   still in flight when the fan-out deadline died
	//	"canceled"  still in flight when the caller hung up
	//	"abandoned" still in flight when another attempt won; its
	//	            work was discarded (a healthy race loser, not a
	//	            failure)
	State      string  `json:"state"`
	Error      string  `json:"error,omitempty"`
	TookMillis float64 `json:"tookMillis"`
}

// ShardStatus reports one shard's outcome within one coordinated
// request.
type ShardStatus struct {
	Shard string `json:"shard"`
	// Replica names the replica that decided the leg: the winner on
	// "ok", the last attempted replica otherwise.
	Replica string `json:"replica,omitempty"`
	// State is "ok", "error", "timeout", or "canceled".
	State      string  `json:"state"`
	Error      string  `json:"error,omitempty"`
	TookMillis float64 `json:"tookMillis"`
	// Candidates is the size of the shard's partial candidate table
	// (0 unless State is "ok").
	Candidates int `json:"candidates"`
	// Hedged reports that the hedged retry fired for this shard.
	Hedged bool `json:"hedged,omitempty"`
	// Attempts itemizes every attempt (first try and hedge) with its
	// own outcome and latency, in launch order.
	Attempts []AttemptStatus `json:"attempts,omitempty"`
}

// Result is one coordinated suggestion answer.
type Result struct {
	Suggestions []core.MergedSuggestion
	// Partial is true when at least one shard did not contribute — the
	// suggestions are the surviving shards' best answer.
	Partial bool
	// Shards holds per-shard statuses in shard order.
	Shards []ShardStatus
	// Corpus is the corpus name negotiated from shard responses.
	Corpus string
	// Spans holds the attempt span trees of a traced request (one
	// "shard.attempt" client span per attempt, shard subtrees stitched
	// under winning attempts), in shard order, for the caller to attach
	// under its server span. Nil on untraced requests.
	Spans []*obs.SpanNode
}

// Coordinator fans suggestion queries out over shard replica sets and
// merges the partials. Safe for concurrent use.
type Coordinator struct {
	cfg    Config
	shards []*shardSet
	client *http.Client
	logger *slog.Logger

	mu     sync.Mutex
	corpus string // negotiated from shard responses
}

// New builds a coordinator over the configured shard replica sets.
func New(cfg Config) (*Coordinator, error) {
	shards, err := buildShards(cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, shards: shards, client: cfg.Client, logger: cfg.Logger}
	if c.client == nil {
		c.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.logger == nil {
		c.logger = slog.Default()
	}
	return c, nil
}

// Topology returns the shard replica sets in shard order.
func (c *Coordinator) Topology() [][]Replica {
	out := make([][]Replica, len(c.shards))
	for i, sh := range c.shards {
		for _, r := range sh.replicas {
			out[i] = append(out[i], r.Replica)
		}
	}
	return out
}

// Replicas returns every replica across all shards, in shard then
// replica order (the flat view logs and health probes iterate).
func (c *Coordinator) Replicas() []Replica {
	var out []Replica
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			out = append(out, r.Replica)
		}
	}
	return out
}

// Corpus returns the corpus name last negotiated from shard responses
// ("" before the first successful fan-out against a named corpus).
func (c *Coordinator) Corpus() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.corpus == "" {
		return c.cfg.Corpus
	}
	return c.corpus
}

func (c *Coordinator) timeout() time.Duration {
	if c.cfg.Timeout > 0 {
		return c.cfg.Timeout
	}
	return 2 * time.Second
}

func (c *Coordinator) hedgeAfter() time.Duration {
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	return c.timeout() / 4
}

func (c *Coordinator) loadFactor() float64 {
	if c.cfg.LoadFactor > 0 {
		return c.cfg.LoadFactor
	}
	return defaultLoadFactor
}

func (c *Coordinator) failCooldown() time.Duration {
	if c.cfg.FailCooldown > 0 {
		return c.cfg.FailCooldown
	}
	return defaultFailCooldown
}

// routingKey is the consistent-hash affinity key: one corpus+query
// pair always prefers the same replica of each shard, so that
// replica's suggestion cache keeps absorbing the repeats.
func routingKey(corpus, query string) string {
	return corpus + "\x00" + query
}

func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000.0
}

// Suggest coordinates one query: fan out to every shard (bounded by
// min(Config.Timeout, ctx deadline), with one hedged retry per shard
// targeting a different replica), then merge the surviving partial
// sets in shard order. requestID, when non-empty, is forwarded as
// X-Request-Id so shard slow-logs correlate with the coordinator's.
// tc, when non-nil, marks the request sampled: every attempt carries a
// W3C traceparent header (trace ID from tc, a fresh span ID per
// attempt) and the result carries the stitched attempt span trees.
// Shard failures do not produce an error: the result carries
// Partial=true and per-shard statuses, and with every shard down the
// suggestion list is empty but the response is still well-formed. The
// only error is a merge-level inconsistency (shards answering with
// different keyword arity).
func (c *Coordinator) Suggest(ctx context.Context, query, corpus, requestID string, tc *obs.TraceContext) (*Result, error) {
	ans, spans, err := c.fanOut(ctx, []string{query}, corpus, requestID, tc)
	if err != nil {
		return nil, err
	}
	return &Result{
		Suggestions: ans.Queries[0].Suggestions,
		Partial:     ans.Partial,
		Shards:      ans.Shards,
		Corpus:      ans.Corpus,
		Spans:       spans,
	}, nil
}

// shardCall is one fan-out's request, shared by every leg and attempt:
// the body is marshalled once.
type shardCall struct {
	queries   []string
	body      []byte // the marshalled BatchRequest
	requestID string
}

// fanOut runs one leg per shard carrying every query (bounded by
// min(Config.Timeout, ctx deadline)), then merges each query
// independently across the shards that answered it: Eq. 8 adds up over
// disjoint entity partitions per query, whatever the batch around it.
// A failed leg degrades every query to partial; a per-query error on a
// healthy shard degrades only that query. tc is as for Suggest; the
// returned spans are nil when it is nil.
func (c *Coordinator) fanOut(ctx context.Context, queries []string, corpus, requestID string, tc *obs.TraceContext) (*BatchAnswer, []*obs.SpanNode, error) {
	if corpus == "" {
		corpus = c.cfg.Corpus
	}
	// The body is not pooled: an abandoned attempt's transport may still
	// be reading it after the fan-out returns.
	body := AppendBatchRequest(nil, &BatchRequest{
		Corpus:    corpus,
		RequestID: requestID,
		Queries:   queries,
	})
	call := &shardCall{queries: queries, body: body, requestID: requestID}
	budget := c.timeout()
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < budget {
			budget = rem
		}
	}
	cctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()

	// The affinity key spans the whole batch: a repeated batch (same
	// queries, same corpus) lands on the same replicas, and a batch of
	// one keys exactly as its query alone.
	key := routingKey(corpus, strings.Join(queries, "\x00"))
	type slot struct {
		resp  *BatchResponse
		spans []*obs.SpanNode
	}
	slots := make([]slot, len(c.shards))
	ans := &BatchAnswer{
		Queries: make([]BatchQueryAnswer, len(queries)),
		Shards:  make([]ShardStatus, len(c.shards)),
	}
	var wg sync.WaitGroup
	for i := range c.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slots[i].resp, ans.Shards[i], slots[i].spans = c.callLeg(cctx, c.shards[i], key, tc, call)
		}(i)
	}
	wg.Wait()

	var spans []*obs.SpanNode
	for _, sl := range slots {
		spans = append(spans, sl.spans...)
		if sl.resp != nil && ans.Corpus == "" {
			ans.Corpus = sl.resp.Corpus
		}
	}
	if ans.Corpus != "" {
		c.mu.Lock()
		c.corpus = ans.Corpus
		c.mu.Unlock()
	}
	for qi, q := range queries {
		sets := make([]core.PartialSet, 0, len(slots))
		partial := false
		for _, sl := range slots {
			if sl.resp == nil || sl.resp.Results[qi].Error != "" {
				partial = true
				continue
			}
			sets = append(sets, sl.resp.Results[qi].PartialSet)
		}
		sugs, err := core.MergePartials(core.MergeConfig{Beta: c.cfg.Beta, K: c.cfg.K}, sets)
		if err != nil {
			return nil, nil, fmt.Errorf("query %q: %w", q, err)
		}
		ans.Queries[qi] = BatchQueryAnswer{Query: q, Suggestions: sugs, Partial: partial}
		ans.Partial = ans.Partial || partial
	}
	return ans, spans, nil
}

// liveAttempt is callLeg's bookkeeping for one launched attempt. Only
// the coordinating goroutine touches it (launches and channel receives
// all happen there).
type liveAttempt struct {
	rep     *replicaState
	span    obs.SpanID // per-attempt span ID (zero when untraced)
	started time.Time
	done    bool
	state   string // "ok", "error", "timeout", "canceled" once done
	err     string
	took    time.Duration
}

// ctxState classifies a context death: the caller hanging up is
// "canceled" (the work was no longer wanted — not a shard fault), the
// fan-out budget expiring is "timeout". Any other error is "error".
func ctxState(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	}
	return "error"
}

// callLeg runs one shard's fan-out leg: a first attempt against the
// routed replica, plus at most one hedged retry against a different
// replica — fired after hedgeAfter for stragglers, or immediately when
// the first attempt fails fast (a refused connection should not wait
// out the hedge delay). The first successful attempt wins; a losing
// in-flight attempt is abandoned to the context (its goroutine drains
// into the buffered channel and exits when the per-request context is
// cancelled). Every attempt is itemized in the returned status with
// its replica and final state; on a traced request (tc non-nil) each
// attempt also carried its own traceparent and comes back as one
// "shard.attempt" client span, the winner parenting the replica's
// returned subtree.
func (c *Coordinator) callLeg(ctx context.Context, sh *shardSet, key string, tc *obs.TraceContext, call *shardCall) (*BatchResponse, ShardStatus, []*obs.SpanNode) {
	start := time.Now()
	ord := sh.order(key, start)
	first := sh.pickFirst(ord, c.loadFactor())

	type outcome struct {
		ord  int
		resp *BatchResponse
		err  error
		took time.Duration
	}
	ch := make(chan outcome, 2)
	var attempts []liveAttempt
	launch := func(rep *replicaState) {
		ordinal := len(attempts)
		a := liveAttempt{rep: rep, started: time.Now()}
		header := ""
		if tc != nil {
			a.span = obs.NewSpanID()
			header = obs.Traceparent(tc.TraceID, a.span, true)
		}
		attempts = append(attempts, a)
		rep.m.requests.Add(1)
		rep.inflight.Add(1)
		go func() {
			resp, err := c.fetch(ctx, rep, call, header)
			rep.inflight.Add(-1)
			ch <- outcome{ord: ordinal, resp: resp, err: err, took: time.Since(a.started)}
		}()
	}
	launch(sh.replicas[first])

	// finish assembles the per-attempt statuses and (when traced) the
	// attempt spans: completed attempts keep their recorded outcome;
	// attempts still in flight are classified by why the leg ended —
	// "abandoned" when another attempt won (a healthy race loser whose
	// work was discarded), legState ("timeout"/"canceled") when the
	// context died under them. winner is the winning attempt's ordinal
	// (-1 = none); the replica's returned subtree is stitched under its
	// span.
	finish := func(winner int, legState string, span *obs.SpanNode) ([]AttemptStatus, []*obs.SpanNode) {
		sts := make([]AttemptStatus, len(attempts))
		var spans []*obs.SpanNode
		for j := range attempts {
			a := &attempts[j]
			st := AttemptStatus{Attempt: j, Replica: a.rep.Name, Hedge: j > 0}
			if a.done {
				st.State, st.Error, st.TookMillis = a.state, a.err, millis(a.took)
			} else {
				elapsed := time.Since(a.started)
				st.TookMillis = millis(elapsed)
				if winner >= 0 {
					st.State = "abandoned"
				} else {
					// The context died with this attempt in flight: a real
					// deadline (or hang-up) death, counted as such on the
					// replica that was holding it.
					st.State = legState
					switch legState {
					case "timeout":
						a.rep.m.timeouts.Add(1)
						a.rep.observeLatency(elapsed)
						a.rep.markFailure(time.Now(), c.failCooldown())
					case "canceled":
						a.rep.m.canceled.Add(1)
					}
				}
			}
			sts[j] = st
			if tc == nil {
				continue
			}
			node := &obs.SpanNode{
				SpanID:        a.span.String(),
				ParentSpanID:  tc.Parent.String(),
				Name:          "shard.attempt",
				Kind:          "client",
				StartUnixNano: a.started.UnixNano(),
				DurationNs:    int64(st.TookMillis * 1e6),
				Attrs: map[string]string{
					"shard":   sh.name,
					"replica": a.rep.Name,
					"attempt": fmt.Sprintf("%d", j),
				},
			}
			if st.Hedge {
				node.Attrs["hedge"] = "true"
			}
			// A race loser is not a timeout: "abandoned" is a status of
			// its own in the waterfall, with no error text.
			switch st.State {
			case "ok":
			case "abandoned":
				node.Status = "abandoned"
			default:
				node.Status = st.State
				node.Error = st.Error
			}
			if j == winner && span != nil {
				node.AddChild(span)
			}
			spans = append(spans, node)
		}
		return sts, spans
	}

	hedge := time.NewTimer(c.hedgeAfter())
	defer hedge.Stop()
	hedged := false
	launchHedge := func() {
		hedged = true
		rep := sh.replicas[sh.hedgeTarget(ord, first)]
		rep.m.hedges.Add(1)
		launch(rep)
	}
	pending := 1
	var lastErr error
	var lastRep *replicaState
	fail := func(state string, err error) (ShardStatus, []*obs.SpanNode) {
		msg := err.Error()
		c.logger.Warn("shard fan-out failed",
			"shard", sh.name, "state", state, "hedged", hedged, "err", msg)
		sts, spans := finish(-1, state, nil)
		replica := ""
		if lastRep != nil {
			replica = lastRep.Name
		} else if n := len(attempts); n > 0 {
			replica = attempts[n-1].rep.Name
		}
		return ShardStatus{
			Shard:      sh.name,
			Replica:    replica,
			State:      state,
			Error:      msg,
			TookMillis: millis(time.Since(start)),
			Hedged:     hedged,
			Attempts:   sts,
		}, spans
	}
	for {
		select {
		case a := <-ch:
			pending--
			att := &attempts[a.ord]
			att.done, att.took = true, a.took
			lastRep = att.rep
			if a.err == nil {
				att.state = "ok"
				att.rep.markSuccess()
				att.rep.observeLatency(a.took)
				att.rep.m.latency.Record(a.took)
				att.rep.m.sink.ObserveSuggest(a.took, nil)
				took := time.Since(start)
				sts, spans := finish(a.ord, "", a.resp.TraceSpan)
				cands := 0
				for _, e := range a.resp.Results {
					cands += len(e.Candidates)
				}
				return a.resp, ShardStatus{
					Shard:      sh.name,
					Replica:    att.rep.Name,
					State:      "ok",
					TookMillis: millis(took),
					Candidates: cands,
					Hedged:     hedged,
					Attempts:   sts,
				}, spans
			}
			// A completed failed attempt is classified by its own error
			// (the HTTP client surfaces the context death it died of) and
			// attributed to its replica.
			att.state, att.err = ctxState(a.err), a.err.Error()
			msg := att.err
			att.rep.m.lastErr.Store(&msg)
			switch att.state {
			case "timeout":
				att.rep.m.timeouts.Add(1)
				att.rep.observeLatency(a.took)
				att.rep.markFailure(time.Now(), c.failCooldown())
			case "canceled":
				att.rep.m.canceled.Add(1)
			default:
				att.state = "error"
				att.rep.m.failures.Add(1)
				att.rep.observeLatency(a.took)
				att.rep.markFailure(time.Now(), c.failCooldown())
			}
			lastErr = a.err
			if !hedged && ctx.Err() == nil {
				pending++
				launchHedge()
				continue
			}
			if pending == 0 {
				state := "error"
				if ctx.Err() != nil {
					state = ctxState(ctx.Err())
				}
				st, spans := fail(state, lastErr)
				return nil, st, spans
			}
		case <-hedge.C:
			if !hedged && ctx.Err() == nil {
				pending++
				launchHedge()
			}
		case <-ctx.Done():
			err := ctx.Err()
			if lastErr != nil {
				err = fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
			}
			st, spans := fail(ctxState(ctx.Err()), err)
			return nil, st, spans
		}
	}
}

// fetch performs one POST /shard/suggest attempt against one replica.
// traceparent, when non-empty, is the attempt's W3C trace context
// header. The response must answer the request's queries entry for
// entry, in order; one in which every entry failed (a shard that
// cannot serve partials, a deadline dead before the first scan
// finished) fails the attempt with the first entry's error, so the
// leg hedges to another replica.
func (c *Coordinator) fetch(ctx context.Context, rep *replicaState, call *shardCall, traceparent string) (*BatchResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		rep.URL+"/shard/suggest", bytes.NewReader(call.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	if call.requestID != "" {
		req.Header.Set("X-Request-Id", call.requestID)
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("replica %s: HTTP %d: %s", rep.Name, resp.StatusCode,
			strings.TrimSpace(string(b)))
	}
	// The body is read into a pooled buffer and copied into one string,
	// of which every decoded word and path is a substring.
	buf := GetBuffer()
	if err := ReadBody(resp.Body, buf, resp.ContentLength, maxResponseBody); err != nil {
		PutBuffer(buf)
		return nil, fmt.Errorf("replica %s: bad response: %w", rep.Name, err)
	}
	body := string(*buf)
	PutBuffer(buf)
	br, err := DecodeBatchResponse(body)
	if err != nil {
		var ve *VersionError
		if errors.As(err, &ve) {
			return nil, fmt.Errorf("replica %s: wire version %d (coordinator speaks %d)",
				rep.Name, ve.Got, WireVersion)
		}
		return nil, fmt.Errorf("replica %s: bad response: %w", rep.Name, err)
	}
	if len(br.Results) != len(call.queries) {
		return nil, fmt.Errorf("replica %s: %d results for %d queries",
			rep.Name, len(br.Results), len(call.queries))
	}
	failed := 0
	for i, e := range br.Results {
		if e.Query != call.queries[i] {
			return nil, fmt.Errorf("replica %s: entry %d answers %q, want %q",
				rep.Name, i, e.Query, call.queries[i])
		}
		if e.Error != "" {
			failed++
		}
	}
	if failed == len(br.Results) {
		return nil, fmt.Errorf("replica %s: %s", rep.Name, br.Results[0].Error)
	}
	return br, nil
}

// maxResponseBody caps one shard response.
const maxResponseBody = 64 << 20

// ShardHealth is one replica's health-probe outcome.
type ShardHealth struct {
	// Shard is the entity-range label ("shard0") shared by every
	// replica of the shard.
	Shard string `json:"shard"`
	// Replica is the probed replica's full name.
	Replica string `json:"replica"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// Health probes every replica's /healthz in parallel (each probe
// bounded by the remaining context budget) and returns per-replica
// outcomes in shard then replica order.
func (c *Coordinator) Health(ctx context.Context) []ShardHealth {
	type probe struct {
		sh  *shardSet
		rep *replicaState
	}
	var ps []probe
	for _, sh := range c.shards {
		for _, rep := range sh.replicas {
			ps = append(ps, probe{sh, rep})
		}
	}
	out := make([]ShardHealth, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p probe) {
			defer wg.Done()
			h := ShardHealth{Shard: p.sh.name, Replica: p.rep.Name, URL: p.rep.URL}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.rep.URL+"/healthz", nil)
			if err != nil {
				h.Error = err.Error()
				out[i] = h
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				h.Error = err.Error()
				out[i] = h
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				h.Healthy = true
			} else {
				h.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
			}
			out[i] = h
		}(i, p)
	}
	wg.Wait()
	return out
}
