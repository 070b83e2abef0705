package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"xclean"
	"xclean/internal/cluster"
	"xclean/internal/obs"
	"xclean/internal/qlog"
)

// Cluster-mode handlers: the shard side (/shard/suggest, served by any
// node whose engine supports partial scans) and the coordinator side
// (/suggest fan-out + merge, /healthz shard probing).

// partialSuggester is the optional engine capability behind
// /shard/suggest. It is a type assertion rather than an Engine method
// so existing Engine implementations (and test fakes) keep compiling.
// The context is the coordinator's forwarded deadline: the shard scan
// polls it and abandons work the coordinator will no longer merge.
// explain asks for the scan's per-stage durations too, so a sampled
// fan-out can return shard stage spans in the wire envelope.
type partialSuggester interface {
	SuggestPartialsContext(ctx context.Context, query string, explain bool) (xclean.PartialSet, []obs.Span, error)
}

// handleShardSuggest serves POST /shard/suggest: the shard half of the
// scatter-gather protocol, for one query or a batch alike. It runs the
// scan half of Algorithm 1 per query and returns the γ-bounded partial
// accumulator tables in the versioned binary wire, leaving
// error-model weighting, normalization, and ranking to the
// coordinator. The body is one admission unit and one scan loop under
// the forwarded deadline; a query that fails marks only its own entry.
// A deadline that dies before the first scan finishes answers 503, and
// one that dies mid-body marks the remaining entries failed without
// running them.
func (s *Server) handleShardSuggest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The body is read into a pooled buffer and copied into one string,
	// of which every decoded query is a substring.
	buf := cluster.GetBuffer()
	if err := cluster.ReadBody(r.Body, buf, r.ContentLength, maxShardRequest); err != nil {
		cluster.PutBuffer(buf)
		s.writeError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	br, err := cluster.DecodeBatchRequest(string(*buf))
	cluster.PutBuffer(buf)
	if err != nil {
		var ve *cluster.VersionError
		if errors.As(err, &ve) {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("wire version %d (this shard speaks %d)", ve.Got, cluster.WireVersion))
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(br.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(br.Queries) > cluster.MaxBatchQueries {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the %d limit", len(br.Queries), cluster.MaxBatchQueries))
		return
	}
	for _, q := range br.Queries {
		if q == "" || len(q) > s.cfg.maxQueryLen() {
			s.writeError(w, http.StatusBadRequest, "batch query empty or too long")
			return
		}
	}
	eng, corpus, err := s.resolveEngine(br.Corpus)
	if err != nil {
		s.writeError(w, catalogStatus(err), err.Error())
		return
	}
	ps, ok := eng.(partialSuggester)
	if !ok {
		s.writeError(w, http.StatusNotImplemented, "engine does not serve shard partials")
		return
	}
	rid := requestIDFrom(r.Context())
	// A sampled incoming traceparent (the coordinator's per-attempt
	// span) switches the scans to their explained variant so the
	// response envelope can carry this shard's span subtree; the
	// coordinator made the sampling decision, so no local sampler runs
	// here.
	_, parentSpan, sampled, hasTrace := obs.ParseTraceparent(r.Header.Get("Traceparent"))
	traced := sampled && hasTrace
	// The scans honor the coordinator's forwarded deadline (the HTTP
	// request context dies when the coordinator's budget expires or it
	// hangs up), capped by this shard's own RequestTimeout; shard scans
	// pass the same admission gate as standalone ones.
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, admit := s.adm.acquire(ctx)
	switch admit {
	case admitShed:
		s.writeShed(w)
		return
	case admitTimeout:
		s.writeOverdeadline(w, ctx.Err())
		return
	}
	start := time.Now()
	if s.cfg.InjectDelay > 0 {
		// Counted inside the scans' took so the slow shard is slow in
		// its own span and slow log, not just the coordinator's view.
		time.Sleep(s.cfg.InjectDelay)
	}
	// The shard's server span adopts the coordinator's attempt span as
	// parent, so the returned subtree stitches into the coordinator's
	// tree with no ID rewriting.
	var self obs.SpanID
	var stages []*obs.SpanNode
	if traced {
		self = obs.NewSpanID()
	}
	results := make([]cluster.BatchEntry, len(br.Queries))
	for i, q := range br.Queries {
		results[i].Query = q
		set, stageSpans, err := ps.SuggestPartialsContext(ctx, q, traced)
		if err != nil {
			if !isCtxErr(err) {
				results[i].Error = err.Error()
				continue
			}
			s.adm.cancels.Add(1)
			if i == 0 {
				release()
				s.writeOverdeadline(w, err)
				return
			}
			// The remaining scans would fail identically, so mark them
			// without running them.
			for j := i; j < len(br.Queries); j++ {
				results[j].Query = br.Queries[j]
				results[j].Error = err.Error()
			}
			break
		}
		results[i].PartialSet = set
		if traced {
			stages = append(stages, obs.StageSpanNodes(self, stageSpans)...)
		}
		// Shard scans enter the slow log too (without a trace), marked
		// Shard and carrying the coordinator's forwarded request ID, so
		// a slow coordinated query is attributable to the shard that
		// lagged. Each entry's duration runs from the handler's start.
		took := time.Since(start)
		if s.cfg.SlowLog.Record(qlog.SlowRecord{
			RequestID:   rid,
			Corpus:      corpus,
			Query:       q,
			Shard:       true,
			DurationNs:  took.Nanoseconds(),
			Suggestions: len(set.Candidates),
		}) {
			if s.cfg.Obs != nil {
				s.cfg.Obs.SlowQueries.Inc()
			}
			if s.cfg.Logger != nil {
				s.cfg.Logger.Warn("slow shard scan", "requestId", rid, "corpus", corpus,
					"query", q, "tookMillis", float64(took.Microseconds())/1000)
			}
		}
	}
	release()
	took := time.Since(start)
	resp := cluster.BatchResponse{
		Corpus:     corpus,
		TookMillis: float64(took.Microseconds()) / 1000,
		Results:    results,
	}
	if traced {
		resp.TraceSpan = &obs.SpanNode{
			SpanID:        self.String(),
			ParentSpanID:  parentSpan.String(),
			Name:          "shard.suggest",
			Kind:          "server",
			StartUnixNano: start.UnixNano(),
			DurationNs:    took.Nanoseconds(),
		}
		for _, n := range stages {
			resp.TraceSpan.AddChild(n)
		}
	}
	out := cluster.GetBuffer()
	defer cluster.PutBuffer(out)
	body, err := cluster.AppendBatchResponse(*out, &resp)
	*out = body
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encode shard response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", cluster.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Error("write shard response", "err", err)
	}
}

// maxShardRequest caps one /shard/suggest request body.
const maxShardRequest = 4 << 20

// handleClusterSuggest serves /suggest in coordinator mode: fan out to
// every shard (propagating the request context and ID), merge the
// surviving partials, and answer — marked partial when any shard
// failed, with per-shard statuses either way.
func (s *Server) handleClusterSuggest(w http.ResponseWriter, r *http.Request, params url.Values, q string, k int) {
	if params.Get("spaces") == "1" {
		s.writeError(w, http.StatusNotImplemented,
			"space-error search is not available in coordinator mode")
		return
	}
	if s.cfg.QueryLog != nil {
		s.cfg.QueryLog.RecordQuery(q)
	}
	debug := params.Get("debug") == "1"
	rid := requestIDFrom(r.Context())
	tc, traceParent := s.startTrace(w, r)
	corpus := params.Get("corpus")
	start := time.Now()
	cacheKey := ""
	if s.cache != nil {
		// The mode byte keeps coordinator entries disjoint from any
		// local-engine entries while sharing the per-corpus prefix, so
		// invalidateCorpus reaches these too.
		cacheKey = suggestCacheKey(cacheModeCluster, corpus, q)
		// debug=1 bypasses the cache so the per-shard statuses reflect a
		// real fan-out.
		if !debug {
			if sugs, ok := s.cache.Get(cacheKey); ok {
				took := time.Since(start)
				s.latency.Record(took)
				s.observeHTTP(took, tc, rid)
				s.hitLatency.Record(took)
				s.finishTrace(tc, traceParent, "suggest", rid, q, s.cfg.Cluster.Corpus(),
					start, took, false, nil, map[string]string{"cache": "hit"})
				s.writeClusterResponse(w, q, s.cfg.Cluster.Corpus(), rid, sugs, nil, false, took, k)
				return
			}
		}
	}

	// A fan-out is real work for the whole cluster, so coordinator
	// misses pass the same admission gate as standalone scans. The
	// coordinator keeps its own per-request budget (cluster
	// Config.Timeout); RequestTimeout is not stacked on top.
	release, admit := s.adm.acquire(r.Context())
	switch admit {
	case admitShed:
		s.writeShed(w)
		return
	case admitTimeout:
		s.writeOverdeadline(w, r.Context().Err())
		return
	}
	res, err := s.cfg.Cluster.Suggest(r.Context(), q, corpus, rid, tc)
	release()
	if err != nil {
		if isCtxErr(err) {
			s.adm.cancels.Add(1)
			s.writeOverdeadline(w, err)
			return
		}
		s.writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	took := time.Since(start)
	s.latency.Record(took)
	s.observeHTTP(took, tc, rid)
	s.missLatency.Record(took)
	// The fan-out's attempt spans (each carrying the winning shard's
	// returned subtree) stitch under the coordinator's server span.
	tr := s.finishTrace(tc, traceParent, "suggest", rid, q, res.Corpus,
		start, took, res.Partial, res.Spans, nil)

	sugs := xclean.ConvertMerged(res.Suggestions)
	// Only complete answers are cacheable: a degraded answer must not
	// outlive the outage that produced it. debug=1 runs bypass the
	// write too, mirroring the standalone handler.
	if s.cache != nil && !res.Partial && !debug {
		s.cache.Put(cacheKey, sugs)
	}
	rec := qlog.SlowRecord{
		RequestID:   rid,
		Corpus:      res.Corpus,
		Query:       q,
		DurationNs:  took.Nanoseconds(),
		Suggestions: len(sugs),
	}
	if tr != nil {
		rec.Trace = tr
	}
	if s.cfg.SlowLog.Record(rec) {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("slow coordinated query", "requestId", rid,
				"query", q, "tookMillis", float64(took.Microseconds())/1000)
		}
	}
	resCorpus := res.Corpus
	if resCorpus == "" {
		resCorpus = s.cfg.Cluster.Corpus()
	}
	s.writeClusterResponse(w, q, resCorpus, rid, sugs, res.Shards, res.Partial, took, k)
}

func (s *Server) writeClusterResponse(w http.ResponseWriter, q, corpus, rid string,
	sugs []xclean.Suggestion, shards []cluster.ShardStatus, partial bool, took time.Duration, k int) {
	s.writeJSON(w, http.StatusOK, SuggestResponse{
		Query:       q,
		Corpus:      corpus,
		Suggestions: suggestionJSON(sugs, k),
		TookMillis:  float64(took.Microseconds()) / 1000,
		RequestID:   rid,
		Partial:     partial,
		Shards:      shards,
	})
}

// BatchSuggestBody is the body of POST /suggest in coordinator mode.
type BatchSuggestBody struct {
	Queries []string `json:"queries"`
	Corpus  string   `json:"corpus,omitempty"`
	// K caps the suggestions returned per query (0 = server default).
	K int `json:"k,omitempty"`
}

// BatchSuggestResponse is the response of POST /suggest: one
// SuggestResponse per query in request order (each carrying its own
// partial flag), plus the batched fan-out's per-shard statuses when a
// fan-out happened (absent when every query was a cache hit).
type BatchSuggestResponse struct {
	Corpus     string  `json:"corpus,omitempty"`
	RequestID  string  `json:"requestId,omitempty"`
	TookMillis float64 `json:"tookMillis"`
	// Partial is true when any query's answer is partial.
	Partial bool                  `json:"partial,omitempty"`
	Shards  []cluster.ShardStatus `json:"shards,omitempty"`
	Results []SuggestResponse     `json:"results"`
}

// handleClusterSuggestBatch serves POST /suggest in coordinator mode:
// resolve per-query cache hits, fan the misses out in one batched
// round-trip per shard, merge per query, and cache the complete
// answers. The whole batch passes admission once (it is one unit of
// cluster work).
func (s *Server) handleClusterSuggestBatch(w http.ResponseWriter, r *http.Request) {
	var body BatchSuggestBody
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&body); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(body.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch (want {\"queries\": [...]})")
		return
	}
	if body.K < 0 {
		s.writeError(w, http.StatusBadRequest, "k must not be negative")
		return
	}
	if len(body.Queries) > cluster.MaxBatchQueries {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the %d limit", len(body.Queries), cluster.MaxBatchQueries))
		return
	}
	for _, q := range body.Queries {
		if q == "" || len(q) > s.cfg.maxQueryLen() {
			s.writeError(w, http.StatusBadRequest, "batch query empty or too long")
			return
		}
	}
	rid := requestIDFrom(r.Context())
	start := time.Now()
	if s.cfg.QueryLog != nil {
		for _, q := range body.Queries {
			s.cfg.QueryLog.RecordQuery(q)
		}
	}

	results := make([]SuggestResponse, len(body.Queries))
	var misses []string
	missAt := make([]int, 0, len(body.Queries))
	for i, q := range body.Queries {
		results[i].Query = q
		if s.cache != nil {
			// Batch and GET answers share cacheModeCluster keys, so a
			// batch warms the cache for interactive traffic and vice
			// versa.
			if sugs, ok := s.cache.Get(suggestCacheKey(cacheModeCluster, body.Corpus, q)); ok {
				results[i].Suggestions = suggestionJSON(sugs, body.K)
				continue
			}
		}
		misses = append(misses, q)
		missAt = append(missAt, i)
	}

	var shards []cluster.ShardStatus
	partial := false
	if len(misses) > 0 {
		release, admit := s.adm.acquire(r.Context())
		switch admit {
		case admitShed:
			s.writeShed(w)
			return
		case admitTimeout:
			s.writeOverdeadline(w, r.Context().Err())
			return
		}
		ans, err := s.cfg.Cluster.SuggestBatch(r.Context(), misses, body.Corpus, rid)
		release()
		if err != nil {
			if isCtxErr(err) {
				s.adm.cancels.Add(1)
				s.writeOverdeadline(w, err)
				return
			}
			s.writeError(w, http.StatusBadGateway, err.Error())
			return
		}
		shards = ans.Shards
		partial = ans.Partial
		for mi, qa := range ans.Queries {
			i := missAt[mi]
			sugs := xclean.ConvertMerged(qa.Suggestions)
			results[i].Suggestions = suggestionJSON(sugs, body.K)
			results[i].Partial = qa.Partial
			// Only complete answers are cacheable, mirroring the GET path.
			if s.cache != nil && !qa.Partial {
				s.cache.Put(suggestCacheKey(cacheModeCluster, body.Corpus, qa.Query), sugs)
			}
		}
	}
	took := time.Since(start)
	s.latency.Record(took)
	corpus := s.cfg.Cluster.Corpus()
	s.writeJSON(w, http.StatusOK, BatchSuggestResponse{
		Corpus:     corpus,
		RequestID:  rid,
		TookMillis: float64(took.Microseconds()) / 1000,
		Partial:    partial,
		Shards:     shards,
		Results:    results,
	})
}

// suggestionJSON renders a suggestion list to wire form, capped at k
// (0 = uncapped).
func suggestionJSON(sugs []xclean.Suggestion, k int) []SuggestionJSON {
	if k > 0 && len(sugs) > k {
		sugs = sugs[:k]
	}
	out := make([]SuggestionJSON, len(sugs))
	for i, sg := range sugs {
		out[i] = SuggestionJSON{
			Query:        sg.Query,
			Words:        sg.Words,
			Score:        sg.Score,
			ResultType:   sg.ResultType,
			Entities:     sg.Entities,
			EditDistance: sg.EditDistance,
			Witness:      sg.Witness,
		}
	}
	return out
}

// ClusterHealth is the body of GET /healthz in coordinator mode.
type ClusterHealth struct {
	// Status is "ok" (every replica healthy), "degraded" (some
	// replicas down — answers may be partial where a whole shard is
	// uncovered), or "down" (no shard has a live replica — served with
	// HTTP 503 so load balancers drop the coordinator even though its
	// process is up).
	Status string `json:"status"`
	// Corpus is the corpus name negotiated from shard responses (or
	// the configured name before any traffic).
	Corpus string `json:"corpus,omitempty"`
	// ShardsCovered counts shards with at least one healthy replica;
	// answers are complete iff ShardsCovered == ShardsTotal.
	ShardsCovered int `json:"shardsCovered"`
	ShardsTotal   int `json:"shardsTotal"`
	// Shards holds per-replica probe outcomes in shard then replica
	// order.
	Shards []cluster.ShardHealth `json:"shards"`
}

// shardCoverage folds per-replica probes into (covered, total) shard
// counts: a shard is covered when at least one of its replicas is
// healthy.
func shardCoverage(probes []cluster.ShardHealth) (covered, total int) {
	healthyBy := map[string]bool{}
	order := []string{}
	for _, h := range probes {
		if _, seen := healthyBy[h.Shard]; !seen {
			order = append(order, h.Shard)
		}
		healthyBy[h.Shard] = healthyBy[h.Shard] || h.Healthy
	}
	for _, name := range order {
		if healthyBy[name] {
			covered++
		}
	}
	return covered, len(order)
}

func (s *Server) handleClusterHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()
	probes := s.cfg.Cluster.Health(ctx)
	up := 0
	for _, h := range probes {
		if h.Healthy {
			up++
		}
	}
	covered, total := shardCoverage(probes)
	status, code := "ok", http.StatusOK
	switch {
	case covered == 0:
		status, code = "down", http.StatusServiceUnavailable
	case up < len(probes):
		status = "degraded"
	}
	s.writeJSON(w, code, ClusterHealth{
		Status:        status,
		Corpus:        s.cfg.Cluster.Corpus(),
		ShardsCovered: covered,
		ShardsTotal:   total,
		Shards:        probes,
	})
}
