// Package server exposes an xclean.Engine over HTTP with a small JSON
// API, turning the library into the "Did you mean" service the paper's
// introduction motivates:
//
//	GET  /suggest?q=<query>[&corpus=name][&k=N][&spaces=1][&preview=1][&debug=1]  → ranked suggestions
//	GET  /stats[?corpus=name]                  → indexed-document statistics
//	GET  /metricz[?format=prometheus]          → service + engine + Go runtime metrics
//	GET  /healthz                              → liveness probe
//	GET  /readyz                               → readiness probe (engine serving, admission not saturated)
//	GET  /tracez[?id=traceId]                  → tail-sampled distributed traces (list / one span tree)
//	POST /click?entity=<dewey>                 → record entity feedback (query log)
//	GET  /topqueries?n=N                       → most frequent logged queries
//
// With Config.Catalog set, the server fronts a whole corpus catalog
// instead of one engine: /suggest and /stats take ?corpus=<name>
// (optional while a single corpus is served), and the admin surface
// manages the corpus set at runtime:
//
//	GET    /corpora                            → status of every corpus
//	POST   /corpora?name=N&doc=path            → add a corpus from XML (file or directory)
//	POST   /corpora?name=N&snapshot=path       → add a corpus from a saved index
//	POST   /corpora?name=N&action=reload       → rebuild and hot-swap (old engine serves on failure)
//	DELETE /corpora?name=N                     → remove a corpus
//
// The admin endpoints accept server-side file paths; deploy them
// behind the same trust boundary as the process itself.
//
// With Config.Cluster set, the server is a scatter-gather coordinator:
// /suggest fans out to entity-partitioned shard servers over
//
//	POST /shard/suggest (binary BatchRequest)  → per-query partial sums (binary wire, see cluster/wire.go)
//
// (served by any node whose engine supports partial scans) and merges
// the partial scores into the global top-k. Degraded answers carry
// "partial": true plus per-shard statuses, /healthz reports per-shard
// health (503 when every shard is down), and /metricz adds
// shard-labeled fan-out series.
//
// With a query log configured, every /suggest query and /click is
// recorded; the accumulated log yields the entity priors and query
// popularity the paper's Eq. (8) generalization consumes.
//
// Every request is assigned an ID (or adopts an incoming X-Request-Id
// header), echoed in the X-Request-Id response header, the /suggest
// body, the structured access log, and the slow-query log, so one
// outlier request can be traced across all four.
//
// The handler is safe for concurrent use (the engine's index structures
// are read-only after construction) and supports graceful shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"xclean"
	"xclean/internal/cache"
	"xclean/internal/catalog"
	"xclean/internal/cluster"
	"xclean/internal/eval"
	"xclean/internal/obs"
	"xclean/internal/qlog"
	"xclean/internal/xmltree"
)

// Engine is the part of xclean.Engine the server needs; the indirection
// lets tests plug in fakes. Query takes the request context: the
// engine's scan polls it cooperatively, so an expired per-request
// deadline or a disconnected client stops the scan instead of holding
// a worker until it finishes. A cancelled call returns the context's
// error. An explained request returns the same suggestions plus the
// per-query trace served under /suggest?debug=1 and recorded by the
// slow-query log.
type Engine interface {
	Query(ctx context.Context, req xclean.Request) (xclean.Response, error)
	Stats() xclean.IndexStats
	// Preview renders the witness entity of a suggestion (empty unless
	// the engine stores text).
	Preview(s xclean.Suggestion, maxLen int) string
}

// Config tunes a Server.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Logger receives one structured line per request; nil disables
	// access logging.
	Logger *slog.Logger
	// MaxQueryLen rejects oversized queries (0 = 1024 bytes).
	MaxQueryLen int
	// ReadTimeout and WriteTimeout bound request handling
	// (0 = 5s / 30s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// QueryLog, when non-nil, records every suggested query and every
	// /click, enabling the log-driven entity priors of Eq. (8).
	QueryLog *qlog.Log
	// CacheSize enables an LRU over suggestion lists keyed by query
	// text (0 = disabled). Useful because "Did you mean" traffic is
	// Zipfian. The server does not mutate the engine; callers that do
	// must restart it.
	CacheSize int
	// Obs is the engine's metrics sink. The server does not attach it —
	// callers do, via xclean.Engine.SetObserver — but when set here,
	// /metricz includes its snapshot and the Prometheus exposition
	// covers the engine's stage histograms and counters.
	Obs *obs.Sink
	// SlowLog, when non-nil, receives the full trace of every /suggest
	// engine call slower than its threshold. Configuring it makes every
	// cache-miss request run in explain mode (the trace must exist
	// before the request is known to be slow); the tracing overhead is
	// a few extra clock reads per request.
	SlowLog *qlog.SlowLog
	// Catalog, when non-nil, turns the server into a multi-corpus
	// frontend: requests resolve their engine per call (?corpus=), the
	// /corpora admin endpoints are mounted, and /metricz exposes
	// per-corpus labeled series. The Engine passed to New may then be
	// nil.
	Catalog *catalog.Catalog
	// Cluster, when non-nil, turns the server into a scatter-gather
	// coordinator: /suggest fans out to the configured shard servers
	// and merges their partials (see internal/cluster), /healthz
	// reports per-shard health, and /metricz exposes shard-labeled
	// fan-out series. The Engine and Catalog may then both be nil (a
	// pure coordinator serves no local index).
	Cluster *cluster.Coordinator
	// RequestTimeout bounds the engine work of one /suggest or
	// /shard/suggest request in standalone (non-coordinator) mode: the
	// scan is cancelled cooperatively when it expires and the request
	// answers 503 with a Retry-After hint (0 = no timeout). The
	// coordinator path keeps its own fan-out budget
	// (cluster.Config.Timeout) instead.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently executing engine scans; requests
	// beyond it wait in a queue of at most MaxQueue, and requests beyond
	// that are shed with 429 Too Many Requests + Retry-After
	// (0 = unlimited). Cache hits bypass admission entirely.
	MaxInflight int
	// MaxQueue is the wait-queue bound behind MaxInflight (0 = no
	// queue: everything beyond MaxInflight sheds immediately).
	MaxQueue int
	// Trace, when non-nil, enables distributed tracing: sampled
	// requests produce a stitched span tree — coordinator fan-out,
	// per-shard attempts, shard stage spans — retained by this
	// tail-sampling store and served at GET /tracez. Traced cache
	// misses run in explain mode (the stage spans must exist before the
	// request completes); requests that are not sampled allocate
	// nothing trace-related.
	Trace *obs.TraceStore
	// TraceSample is the head-sampling probability in [0,1] for
	// requests arriving without a traceparent header; requests carrying
	// a sampled W3C traceparent are always traced regardless. 0
	// disables locally initiated traces (propagated ones still trace).
	TraceSample float64
	// InjectDelay sleeps this long before every engine scan — a fault
	// injection hook for exercising tracing, hedging, and tail
	// sampling against an artificially slow node (see make
	// trace-smoke). Leave 0 in production.
	InjectDelay time.Duration
}

func (c Config) addr() string {
	if c.Addr == "" {
		return ":8080"
	}
	return c.Addr
}

func (c Config) maxQueryLen() int {
	if c.MaxQueryLen <= 0 {
		return 1024
	}
	return c.MaxQueryLen
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout <= 0 {
		return 5 * time.Second
	}
	return c.ReadTimeout
}

func (c Config) writeTimeout() time.Duration {
	if c.WriteTimeout <= 0 {
		return 30 * time.Second
	}
	return c.WriteTimeout
}

// Server serves suggestion requests for one engine.
type Server struct {
	eng   Engine
	cfg   Config
	mux   *http.ServeMux
	http  *http.Server
	cache *cache.LRU[[]xclean.Suggestion] // nil when disabled
	// latency records every /suggest request; hitLatency and
	// missLatency split the samples by cache outcome so a warm cache
	// cannot mask the engine's true p50/p99 (hits answer in
	// microseconds, real engine runs in milliseconds — mixing them
	// made the combined percentiles meaningless).
	latency     eval.LatencyRecorder
	hitLatency  eval.LatencyRecorder
	missLatency eval.LatencyRecorder
	// httpDur is the /suggest handler latency histogram backing the
	// Prometheus exposition (the recorders above keep the JSON
	// percentile view).
	httpDur *obs.Histogram
	// adm is the load-shedding layer in front of every engine scan.
	adm *admission
	// sampler makes the head-sampling decision for requests without an
	// incoming traceparent (meaningful only when cfg.Trace is set).
	sampler obs.Sampler
	// runtime lazily folds Go runtime stats (goroutines, heap, GC
	// pauses) into the /metricz views.
	runtime *obs.RuntimeTracker
}

// New builds a server around an engine.
func New(eng Engine, cfg Config) *Server {
	s := &Server{eng: eng, cfg: cfg, mux: http.NewServeMux(),
		httpDur: obs.NewDurationHistogram(),
		adm:     newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		sampler: obs.NewSampler(cfg.TraceSample),
		runtime: obs.NewRuntimeTracker()}
	if cfg.CacheSize > 0 {
		s.cache = cache.New[[]xclean.Suggestion](cfg.CacheSize)
	}
	if cfg.Catalog != nil && cfg.CacheSize > 0 {
		// Corpus hot-swaps must drop that corpus's cached suggestions, or
		// a reloaded corpus keeps serving pre-reload answers for as long
		// as they stay resident (the cache has no TTL).
		cfg.Catalog.OnSwap(s.invalidateCorpus)
	}
	s.mux.HandleFunc("/suggest", s.handleSuggest)
	s.mux.HandleFunc("/shard/suggest", s.handleShardSuggest)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metricz", s.handleMetricz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/tracez", s.handleTracez)
	s.mux.HandleFunc("/click", s.handleClick)
	s.mux.HandleFunc("/topqueries", s.handleTopQueries)
	if cfg.Catalog != nil {
		s.mux.HandleFunc("/corpora", s.handleCorpora)
	}
	s.http = &http.Server{
		Addr:         cfg.addr(),
		Handler:      s.Handler(),
		ReadTimeout:  cfg.readTimeout(),
		WriteTimeout: cfg.writeTimeout(),
	}
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.logWrap(s.mux) }

// ListenAndServe serves until ctx is cancelled, then shuts down
// gracefully (draining in-flight requests for up to 5 seconds).
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.addr())
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over an existing listener.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.http.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
		<-errc // http.ErrServerClosed
		return nil
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return fmt.Errorf("server: %w", err)
	}
}

// Addr returns the configured listen address.
func (s *Server) Addr() string { return s.cfg.addr() }

// invalidateCorpus drops every cached suggestion list of one corpus.
// It is registered as the catalog's swap hook, so a hot-swap, reload,
// document mutation, eviction, or removal immediately stops serving
// the old engine's answers. All cache keys of a corpus — standalone,
// space search, and coordinator alike — share corpusCachePrefix, so
// one prefix sweep reaches every mode and never another corpus.
func (s *Server) invalidateCorpus(name string) {
	if s.cache == nil {
		return
	}
	s.cache.ClearPrefix(corpusCachePrefix(name))
}

// resolveEngine picks the engine serving a request: the catalog corpus
// it names (a ?corpus= parameter, or the shard request's corpus field;
// default resolution when empty), or the fixed engine in single-engine
// mode. The resolved corpus name comes back for cache keys, logs, and
// the response ("" in single-engine mode).
func (s *Server) resolveEngine(name string) (Engine, string, error) {
	if s.cfg.Catalog == nil {
		return s.eng, "", nil
	}
	eng, resolved, err := s.cfg.Catalog.Resolve(name)
	if err != nil {
		return nil, resolved, err
	}
	return eng, resolved, nil
}

// catalogStatus maps a catalog error to its HTTP status.
func catalogStatus(err error) int {
	switch {
	case errors.Is(err, catalog.ErrUnknownCorpus):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrCorpusRequired):
		return http.StatusBadRequest
	case errors.Is(err, catalog.ErrNotServing):
		return http.StatusServiceUnavailable
	case errors.Is(err, catalog.ErrDuplicateCorpus):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// SuggestionJSON is the wire form of one suggestion.
type SuggestionJSON struct {
	Query        string   `json:"query"`
	Words        []string `json:"words"`
	Score        float64  `json:"score"`
	ResultType   string   `json:"resultType,omitempty"`
	Entities     int      `json:"entities"`
	EditDistance int      `json:"editDistance"`
	Witness      string   `json:"witness,omitempty"`
	Preview      string   `json:"preview,omitempty"`
}

// previewLen caps the preview text returned per suggestion.
const previewLen = 240

// SuggestResponse is the body of GET /suggest.
type SuggestResponse struct {
	Query string `json:"query"`
	// Corpus is the resolved catalog corpus the suggestions came from
	// (omitted in single-engine deployments).
	Corpus      string           `json:"corpus,omitempty"`
	Suggestions []SuggestionJSON `json:"suggestions"`
	TookMillis  float64          `json:"tookMillis"`
	// RequestID echoes the request's ID (also in the X-Request-Id
	// header) for correlation with the access and slow-query logs.
	RequestID string `json:"requestId,omitempty"`
	// Explain carries the per-query trace when debug=1 was passed.
	Explain *xclean.Explain `json:"explain,omitempty"`
	// Partial is true when the answer came from a degraded cluster
	// fan-out (at least one shard missing); the suggestions are the
	// surviving shards' best answer.
	Partial bool `json:"partial,omitempty"`
	// Shards carries per-shard fan-out statuses in coordinator mode
	// (state, latency, candidate counts, hedging).
	Shards []cluster.ShardStatus `json:"shards,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && s.cfg.Cluster != nil {
		s.handleClusterSuggestBatch(w, r)
		return
	}
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// The query string is parsed once; every parameter below reads the
	// same values.
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		s.writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	if len(q) > s.cfg.maxQueryLen() {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("query longer than %d bytes", s.cfg.maxQueryLen()))
		return
	}
	k := 0
	if ks := params.Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
		k = v
	}

	if s.cfg.Cluster != nil {
		s.handleClusterSuggest(w, r, params, q, k)
		return
	}

	eng, corpus, err := s.resolveEngine(params.Get("corpus"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err.Error())
		return
	}

	if s.cfg.QueryLog != nil {
		s.cfg.QueryLog.RecordQuery(q)
	}

	spaces := params.Get("spaces") == "1"
	debug := params.Get("debug") == "1"
	rid := requestIDFrom(r.Context())
	tc, traceParent := s.startTrace(w, r)
	start := time.Now()
	var sugs []xclean.Suggestion
	var ex *xclean.Explain
	cacheKey := ""
	cached := false
	if s.cache != nil {
		// The cache is shared across corpora; the key carries the corpus
		// (length-prefixed, see suggestCacheKey) so identical query text
		// never crosses corpus boundaries.
		mode := cacheModeQuery
		if spaces {
			mode = cacheModeSpaces
		}
		cacheKey = suggestCacheKey(mode, corpus, q)
		// debug=1 bypasses the cache entirely (read below, write after
		// the call): a trace must reflect a real engine execution, not a
		// map lookup, and a debug run must not overwrite entries regular
		// traffic will serve.
		if !debug {
			sugs, cached = s.cache.Get(cacheKey)
		}
	}
	if !cached {
		// Only real engine work passes admission: a full server sheds
		// before scanning, and the per-request deadline (plus the
		// client's own disconnect) cancels the scan cooperatively.
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
		if s.cfg.InjectDelay > 0 {
			time.Sleep(s.cfg.InjectDelay)
		}
		// The slow-query log needs the trace before the request is known
		// to be slow, so a configured SlowLog forces explain mode too,
		// as does a sampled trace (its stage spans come from the same
		// explain run).
		trace := debug || s.cfg.SlowLog != nil || tc != nil
		res, err := eng.Query(ctx, xclean.Request{Query: q, Spaces: spaces, Explain: trace})
		sugs, ex = res.Suggestions, res.Explain
		release()
		if err != nil {
			if isCtxErr(err) {
				s.adm.cancels.Add(1)
				s.writeOverdeadline(w, err)
				return
			}
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if s.cache != nil && !debug {
			s.cache.Put(cacheKey, sugs)
		}
	}
	took := time.Since(start)
	s.latency.Record(took)
	s.observeHTTP(took, tc, rid)
	if cached {
		s.hitLatency.Record(took)
	} else {
		s.missLatency.Record(took)
	}
	var tr *obs.Trace
	if tc != nil {
		var children []*obs.SpanNode
		var attrs map[string]string
		if cached {
			attrs = map[string]string{"cache": "hit"}
		} else if ex != nil {
			children = obs.StageSpanNodes(tc.Parent, ex.Spans)
		}
		tr = s.finishTrace(tc, traceParent, "suggest", rid, q, corpus,
			start, took, false, children, attrs)
	}
	rec := qlog.SlowRecord{
		RequestID:   rid,
		Corpus:      corpus,
		Query:       q,
		Spaces:      spaces,
		DurationNs:  took.Nanoseconds(),
		Suggestions: len(sugs),
		Explain:     ex,
	}
	if tr != nil {
		rec.Trace = tr
	}
	if !cached && s.cfg.SlowLog.Record(rec) {
		if s.cfg.Obs != nil {
			s.cfg.Obs.SlowQueries.Inc()
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("slow query", "requestId", rid, "corpus", corpus,
				"query", q, "spaces", spaces, "tookMillis", float64(took.Microseconds())/1000)
		}
	}

	resp := SuggestResponse{
		Query:       q,
		Corpus:      corpus,
		Suggestions: suggestionJSON(sugs, k),
		TookMillis:  float64(time.Since(start).Microseconds()) / 1000,
		RequestID:   rid,
	}
	if debug {
		resp.Explain = ex
	}
	if params.Get("preview") == "1" {
		for i := range resp.Suggestions {
			resp.Suggestions[i].Preview = eng.Preview(sugs[i], previewLen)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	eng, _, err := s.resolveEngine(r.URL.Query().Get("corpus"))
	if err != nil {
		s.writeError(w, catalogStatus(err), err.Error())
		return
	}
	if eng == nil {
		s.writeError(w, http.StatusNotImplemented,
			"no local index in coordinator mode; query the shards' /stats directly")
		return
	}
	s.writeJSON(w, http.StatusOK, eng.Stats())
}

// handleCorpora is the catalog admin surface: list (GET), add or
// reload (POST), remove (DELETE), plus the live-write actions of the
// segmented engine — adddoc (XML request body), removedoc (&doc=
// top-level Dewey code), compact (one compaction step), and flush
// (flatten the segment stack).
func (s *Server) handleCorpora(w http.ResponseWriter, r *http.Request) {
	cat := s.cfg.Catalog
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, cat.List())
	case http.MethodPost:
		name := r.URL.Query().Get("name")
		if name == "" {
			s.writeError(w, http.StatusBadRequest, "missing parameter name")
			return
		}
		doc := r.URL.Query().Get("doc")
		snapshot := r.URL.Query().Get("snapshot")
		action := r.URL.Query().Get("action")
		var err error
		// Document-write failures with a registered corpus are caller
		// mistakes (malformed XML, bad Dewey code), not server faults.
		badRequest := false
		switch {
		case action == "reload":
			err = cat.Reload(name)
		case action == "adddoc":
			err = cat.AddDocumentTo(name, r.Body)
			badRequest = true
		case action == "removedoc":
			if doc == "" {
				s.writeError(w, http.StatusBadRequest, "removedoc requires the doc parameter (a top-level Dewey code such as 1.17)")
				return
			}
			err = cat.RemoveDocumentFrom(name, doc)
			badRequest = true
		case action == "compact":
			_, err = cat.CompactCorpus(r.Context(), name)
		case action == "flush":
			err = cat.FlushCorpus(r.Context(), name)
		case action != "":
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown action %q", action))
			return
		case doc != "" && snapshot == "":
			err = cat.Add(name, doc)
		case snapshot != "" && doc == "":
			err = cat.AddSnapshot(name, snapshot)
		default:
			s.writeError(w, http.StatusBadRequest, "exactly one of doc or snapshot is required")
			return
		}
		if err != nil {
			code := catalogStatus(err)
			if badRequest && code == http.StatusInternalServerError {
				code = http.StatusBadRequest
			}
			// A failed reload keeps the corpus registered (old engine
			// serving); include its status so callers see both.
			if st, stErr := cat.Status(name); stErr == nil {
				s.writeJSON(w, code, struct {
					Error  string         `json:"error"`
					Corpus catalog.Status `json:"corpus"`
				}{err.Error(), st})
				return
			}
			s.writeError(w, code, err.Error())
			return
		}
		st, stErr := cat.Status(name)
		if stErr != nil {
			s.writeError(w, http.StatusInternalServerError, stErr.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		name := r.URL.Query().Get("name")
		if name == "" {
			s.writeError(w, http.StatusBadRequest, "missing parameter name")
			return
		}
		if err := cat.Remove(name); err != nil {
			s.writeError(w, catalogStatus(err), err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "removed", "name": name})
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "GET, POST, or DELETE")
	}
}

// Metrics is the body of GET /metricz. Latency covers every /suggest
// request; LatencyHits and LatencyMisses split the distribution by
// cache outcome, so LatencyMisses is the engine's true per-query
// latency even when most traffic is answered from a warm cache.
type Metrics struct {
	SuggestRequests int               `json:"suggestRequests"`
	CacheHits       int64             `json:"cacheHits"`
	CacheMisses     int64             `json:"cacheMisses"`
	CacheEntries    int               `json:"cacheEntries"`
	Latency         eval.LatencyStats `json:"latency"`
	LatencyHits     eval.LatencyStats `json:"latencyHits"`
	LatencyMisses   eval.LatencyStats `json:"latencyMisses"`
	// SlowQueries counts requests the slow-query log recorded (0 when
	// no slow log is configured).
	SlowQueries int64 `json:"slowQueries"`
	// Engine is the engine-side sink snapshot (per-stage latency
	// histograms, cache and scan counters) when Config.Obs is set.
	Engine *obs.SinkSnapshot `json:"engine,omitempty"`
	// Corpora carries the catalog's per-corpus lifecycle statuses, and
	// CorpusEngines the per-corpus engine sink snapshots, when
	// Config.Catalog is set.
	Corpora       []catalog.Status            `json:"corpora,omitempty"`
	CorpusEngines map[string]obs.SinkSnapshot `json:"corpusEngines,omitempty"`
	// Cluster carries per-shard fan-out counters (requests, failures,
	// timeouts, hedges, latency) in coordinator mode.
	Cluster []cluster.ShardMetrics `json:"cluster,omitempty"`
	// Admission reports the load-shedding layer: in-flight scans, queue
	// depth, sheds, and cancelled scans.
	Admission AdmissionMetrics `json:"admission"`
	// Runtime is the Go runtime block: goroutine count, heap in-use and
	// allocated bytes, GC pause distribution, GOMAXPROCS.
	Runtime obs.RuntimeSnapshot `json:"runtime"`
	// Traces reports the trace store's tail-sampling counters when
	// tracing is enabled.
	Traces *obs.TraceStoreStats `json:"traces,omitempty"`
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if r.URL.Query().Get("format") == "prometheus" {
		s.writePrometheus(w)
		return
	}
	st := s.latency.Stats()
	m := Metrics{
		SuggestRequests: st.Count,
		Latency:         st,
		LatencyHits:     s.hitLatency.Stats(),
		LatencyMisses:   s.missLatency.Stats(),
		SlowQueries:     s.cfg.SlowLog.Count(),
	}
	if s.cache != nil {
		m.CacheHits, m.CacheMisses = s.cache.Stats()
		m.CacheEntries = s.cache.Len()
	}
	if s.cfg.Obs != nil {
		snap := s.cfg.Obs.Snapshot()
		m.Engine = &snap
	}
	if s.cfg.Catalog != nil {
		m.Corpora = s.cfg.Catalog.List()
		m.CorpusEngines = make(map[string]obs.SinkSnapshot)
		for name, sink := range s.cfg.Catalog.Sinks() {
			m.CorpusEngines[name] = sink.Snapshot()
		}
	}
	if s.cfg.Cluster != nil {
		m.Cluster = s.cfg.Cluster.MetricsSnapshot()
	}
	m.Admission = s.admissionMetrics()
	m.Runtime = s.runtime.Snapshot()
	if s.cfg.Trace != nil {
		ts := s.cfg.Trace.Stats()
		m.Traces = &ts
	}
	s.writeJSON(w, http.StatusOK, m)
}

// writePrometheus renders GET /metricz?format=prometheus: the server's
// HTTP-side series under xclean_http_*, then — when Config.Obs is set —
// the engine sink under xclean_engine_* (stage histograms, cache and
// scan counters).
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	obs.WriteCounter(w, "xclean_http_suggest_requests_total",
		"Completed /suggest requests.", int64(s.latency.Stats().Count))
	if s.cfg.Trace != nil {
		// With tracing on, bucket samples carry trace/request-ID
		// exemplars (OpenMetrics syntax) linking an outlier bucket to a
		// concrete /tracez?id= tree.
		obs.WriteHistogramExemplars(w, "xclean_http_suggest_duration_seconds",
			"/suggest handler latency (cache hits included).", s.httpDur)
	} else {
		obs.WriteHistogram(w, "xclean_http_suggest_duration_seconds",
			"/suggest handler latency (cache hits included).", s.httpDur)
	}
	if s.cache != nil {
		hits, misses := s.cache.Stats()
		obs.WriteCounter(w, "xclean_http_cache_hits_total", "Suggestion cache hits.", hits)
		obs.WriteCounter(w, "xclean_http_cache_misses_total", "Suggestion cache misses.", misses)
		obs.WriteGauge(w, "xclean_http_cache_entries", "Suggestion cache resident entries.", float64(s.cache.Len()))
	}
	if s.cfg.SlowLog != nil {
		obs.WriteCounter(w, "xclean_http_slow_queries_total",
			"Requests recorded by the slow-query log.", s.cfg.SlowLog.Count())
	}
	adm := s.admissionMetrics()
	obs.WriteGauge(w, "xclean_http_inflight_requests",
		"Engine scans executing right now.", float64(adm.Inflight))
	obs.WriteGauge(w, "xclean_http_admission_queue_depth",
		"Requests waiting for an in-flight slot.", float64(adm.QueueDepth))
	obs.WriteCounter(w, "xclean_http_sheds_total",
		"Requests shed with 429 (in-flight and queue bounds full).", adm.Sheds)
	obs.WriteCounter(w, "xclean_http_cancelled_scans_total",
		"Engine scans abandoned via context cancellation.", adm.CancelledScans)
	s.runtime.WritePrometheus(w)
	if s.cfg.Trace != nil {
		ts := s.cfg.Trace.Stats()
		obs.WriteCounter(w, "xclean_trace_offered_total",
			"Completed traces offered to the tail-sampling store.", ts.Offered)
		obs.WriteCounter(w, "xclean_trace_retained_total",
			"Traces the tail sampler retained.", ts.Retained)
		obs.WriteCounter(w, "xclean_trace_dropped_total",
			"Traces the tail sampler dropped.", ts.Dropped)
		obs.WriteGauge(w, "xclean_trace_resident",
			"Traces resident in the ring buffers.", float64(ts.Resident))
	}
	if s.cfg.Obs != nil {
		s.cfg.Obs.WritePrometheus(w, "xclean_engine")
	}
	if s.cfg.Catalog != nil {
		// Per-corpus engine series (corpus="<name>" labels) plus the
		// catalog lifecycle series.
		s.cfg.Catalog.WritePrometheus(w, "xclean_engine")
	}
	if s.cfg.Cluster != nil {
		// Shard-labeled fan-out series (xclean_cluster_*).
		s.cfg.Cluster.WritePrometheus(w)
	}
}

func (s *Server) handleClick(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.QueryLog == nil {
		s.writeError(w, http.StatusNotImplemented, "no query log configured")
		return
	}
	d, err := xmltree.ParseDewey(r.URL.Query().Get("entity"))
	if err != nil || len(d) == 0 {
		s.writeError(w, http.StatusBadRequest, "entity must be a dot-form dewey code")
		return
	}
	s.cfg.QueryLog.RecordClick(d)
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

func (s *Server) handleTopQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.QueryLog == nil {
		s.writeError(w, http.StatusNotImplemented, "no query log configured")
		return
	}
	n := 10
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 1 {
			s.writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	s.writeJSON(w, http.StatusOK, s.cfg.QueryLog.TopQueries(n))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Cluster != nil {
		s.handleClusterHealthz(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Error("encode response", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: msg})
}

// ctxKey keys server values in a request context.
type ctxKey int

const requestIDKey ctxKey = iota

// reqSeq numbers requests within this process; combined with the
// process start time it yields IDs unique across restarts.
var reqSeq atomic.Uint64

var procEpoch = time.Now().UnixNano()

func newRequestID() string {
	return fmt.Sprintf("%x-%06d", uint64(procEpoch)&0xffffffff, reqSeq.Add(1))
}

// requestIDFrom returns the request ID the middleware stored, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// maxRequestIDLen bounds adopted client-supplied X-Request-Id values.
const maxRequestIDLen = 64

// logWrap assigns every request an ID (adopting a sane incoming
// X-Request-Id), echoes it in the response header, and — when a logger
// is configured — emits one structured access-log line per request.
func (s *Server) logWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-Id")
		if rid == "" || len(rid) > maxRequestIDLen {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, rid))
		if s.cfg.Logger == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.cfg.Logger.Info("request",
			"requestId", rid,
			"method", r.Method,
			"uri", r.URL.RequestURI(),
			"status", sw.status,
			"took", time.Since(start))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
