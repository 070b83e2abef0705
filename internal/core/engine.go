package core

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/lm"
	"xclean/internal/obs"
	"xclean/internal/phonetic"
	"xclean/internal/resulttype"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// ScoreMode selects how P(C|T) is computed.
type ScoreMode int

const (
	// ScoreModeMatchedOnly follows Algorithm 1: only entities that
	// contain at least one instance of every keyword contribute. This
	// also guarantees suggested queries have non-empty results.
	ScoreModeMatchedOnly ScoreMode = iota
	// ScoreModeExact additionally adds the smoothed background-only
	// contribution of entities that match no keyword, approximating
	// the full sum of Eq. (8). Used by the scoring ablation.
	ScoreModeExact
)

// EvictionPolicy selects the accumulator victim rule of Section V-D.
type EvictionPolicy int

const (
	// EvictLowestEstimate evicts the candidate whose estimated final
	// score (error weight × accumulated mean) is lowest — the paper's
	// probabilistic pruning.
	EvictLowestEstimate EvictionPolicy = iota
	// EvictFIFO evicts the oldest candidate; the ablation baseline.
	EvictFIFO
)

// Config collects every tunable of the XClean engine. The zero value
// yields the paper's defaults (ε=1, β=5, μ=2000, r=0.8, d=2, γ=1000,
// k=10).
type Config struct {
	// Epsilon is the maximum edit errors per keyword (0 = 1).
	Epsilon int
	// Beta is the error penalty β. 0 means DefaultBeta (5); negative
	// values mean a literal β of 0 (no penalty), which Table IV sweeps.
	Beta float64
	// Mu is the Dirichlet smoothing parameter (0 = lm.DefaultMu).
	Mu float64
	// R is the depth reduction rate of Eq. (7) (0 = resulttype.DefaultR).
	R float64
	// MinDepth is the minimal depth threshold d (0 = 2).
	MinDepth int
	// Gamma is the maximum number of in-memory score accumulators
	// (0 = 1000). Negative means unlimited. Under parallel execution
	// (Workers ≠ 1) the bound applies per worker during the scan and is
	// re-applied globally when the per-worker tables are merged.
	Gamma int
	// K is the number of suggestions returned (0 = 10).
	K int
	// PartitionLen is the FastSS partition length l_p (0 = 12).
	PartitionLen int
	// ScoreMode selects matched-only (default, Algorithm 1) or exact
	// scoring.
	ScoreMode ScoreMode
	// Eviction selects the accumulator victim policy.
	Eviction EvictionPolicy
	// LinearSkip disables galloping search in MergedList.SkipTo (the
	// skipping ablation).
	LinearSkip bool
	// MaxSpaceChanges is τ of Section VI-A, the maximum number of
	// space insertions/deletions explored by a Spaces request
	// (0 = 1).
	MaxSpaceChanges int
	// Phonetic enables the Soundex cognitive-error extension of
	// Section VI-A: vocabulary words sounding like a keyword join its
	// variant set with an effective edit distance of PhoneticDistance.
	Phonetic bool
	// PhoneticDistance is the penalty distance of phonetic variants
	// (0 = 2).
	PhoneticDistance int
	// Synonyms maps keywords to alternative terms (a thesaurus or
	// ontology, Section VI-A); in-vocabulary synonyms join the variant
	// set with SynonymDistance.
	Synonyms map[string][]string
	// SynonymDistance is the penalty distance of synonym variants
	// (0 = 1).
	SynonymDistance int
	// Prior selects the entity prior P(r_j|T) of Eq. (8); the zero
	// value is the paper's uniform prior.
	Prior Prior
	// CustomPrior maps entity root Dewey keys (xmltree.Dewey.Key) to
	// unnormalized prior weights; consulted only under PriorCustom.
	CustomPrior map[string]float64
	// Bigram multiplies every candidate's score by the interpolated
	// bigram coherence of its keyword sequence (the language-model
	// extension beyond the paper's unigram Eq. (9)).
	Bigram bool
	// BigramLambda is the interpolation weight λ of the bigram model
	// (0 = lm.DefaultLambda).
	BigramLambda float64
	// Tokenizer overrides the indexing tokenizer options for queries.
	Tokenizer tokenizer.Options
	// Workers bounds the parallelism of one suggestion call: the
	// anchor-subtree scan of Algorithm 1 is sharded across this many
	// goroutines by top-level child, and a Spaces request runs up to
	// this many shapes concurrently. 0 = GOMAXPROCS; 1 = the exact
	// sequential path of Algorithm 1; n > 1 = n workers. Negative
	// values mean 1. When γ does not bind, results are identical for
	// every setting up to floating-point summation order; under a
	// binding γ the parallel path may prune a different (still valid)
	// candidate set than the sequential scan, because the per-worker
	// bound plus merge-time re-prune can evict different accumulators
	// (see Gamma).
	Workers int
}

func (c Config) epsilon() int {
	if c.Epsilon <= 0 {
		return 1
	}
	return c.Epsilon
}

func (c Config) minDepth() int {
	if c.MinDepth <= 0 {
		return 2
	}
	return c.MinDepth
}

func (c Config) gamma() int {
	if c.Gamma == 0 {
		return 1000
	}
	return c.Gamma
}

func (c Config) k() int {
	if c.K <= 0 {
		return 10
	}
	return c.K
}

func (c Config) partitionLen() int {
	if c.PartitionLen <= 0 {
		return 12
	}
	return c.PartitionLen
}

func (c Config) tau() int {
	if c.MaxSpaceChanges <= 0 {
		return 1
	}
	return c.MaxSpaceChanges
}

func (c Config) workers() int {
	if c.Workers < 0 || c.Workers == 1 {
		return 1
	}
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) phoneticDistance() int {
	if c.PhoneticDistance <= 0 {
		return 2
	}
	return c.PhoneticDistance
}

func (c Config) synonymDistance() int {
	if c.SynonymDistance <= 0 {
		return 1
	}
	return c.SynonymDistance
}

// Suggestion is one alternative query with its score P(C|Q,T) up to
// the constant κ, and diagnostic detail.
type Suggestion struct {
	// Words are the suggested keywords, aligned with the input
	// keywords (after space expansion they may differ in number).
	Words []string
	// Score is errWeight(C) · P(C|T); comparable within one Suggest
	// call only.
	Score float64
	// ResultType is the inferred best result node type p_C.
	ResultType xmltree.PathID
	// Entities is the number of entities of type p_C that matched all
	// keywords — always ≥ 1, which is the paper's non-empty-result
	// guarantee.
	Entities int
	// EditDistance is the total edit distance from the observed query.
	EditDistance int
	// Witness is the root of the first entity that matched every
	// keyword — a concrete exhibit of the non-empty-result guarantee,
	// usable for result previews.
	Witness xmltree.Dewey
}

// Query renders the suggestion as a query string.
func (s Suggestion) Query() string { return strings.Join(s.Words, " ") }

// Engine answers top-k query cleaning requests against one index.
// Engines are safe for concurrent use: all index structures are
// read-only after construction and every call works on its own state.
type Engine struct {
	ix invindex.Source
	// fss is the deletion-variant dictionary. It is a structure derived
	// from the vocabulary — O(vocab) to build — so snapshot-backed
	// engines defer it: NewEngineLazy leaves fss nil and sets fssInit,
	// and the first query pays the build (guarded by fssOnce). Access
	// only through fastss().
	fss     *fastss.Index
	fssOnce sync.Once
	fssInit func() *fastss.Index
	phon    *phonetic.Index // nil unless Config.Phonetic
	model   *lm.Model
	bigram  *lm.BigramModel // nil unless Config.Bigram
	inf     *resulttype.Inferrer
	em      ErrorModel
	prior   *entityPrior
	cfg     Config

	// scanPaths, deadOrds, and deadNorm are set only on scan-variant
	// engines (ScanVariant), which score one sealed index segment inside
	// a segmented stack. scanPaths is the newest (superset) path table of
	// the stack, consulted wherever a result type inferred from global
	// statistics may name a path this segment's own table has never
	// interned. deadOrds marks tombstoned top-level document ordinals:
	// the anchor scan skips their subtrees without reading postings.
	// deadNorm is the tombstoned prior mass per result type, subtracted
	// from the cached normalizers so scores reflect only live entities.
	// All three are nil on ordinary engines, which therefore pay one nil
	// check on the affected paths.
	scanPaths *xmltree.PathTable
	deadOrds  map[uint32]bool
	deadNorm  map[xmltree.PathID]float64

	// sink receives aggregate metrics of every call; nil disables all
	// instrumentation (one branch per call site). Set via SetSink.
	sink *obs.Sink
}

// Stats reports the work counters of one call, used by the efficiency
// experiments. Under parallel execution (Config.Workers) the counters
// are summed across workers; the space search sums them across every
// explored shape. TypeComputations may exceed the sequential count
// because each worker keeps its own type cache.
// Subtrees and PostingsRead may be lower than the sequential count:
// a worker's galloping skip over other shards' children can exhaust a
// list early, so trailing incomplete anchor groups — which contribute
// no candidates — are never visited at all.
type Stats struct {
	// PostingsRead is the number of merged-list entries consumed.
	PostingsRead int
	// Subtrees is the number of anchor subtrees processed.
	Subtrees int
	// CandidatesSeen is the number of candidate-query observations
	// (per subtree).
	CandidatesSeen int
	// TypeComputations counts FindResultType invocations (cache
	// misses).
	TypeComputations int
	// TypeCacheHits counts result-type cache hits; together with
	// TypeComputations it makes per-worker cache effectiveness
	// measurable (hits / (hits + misses)).
	TypeCacheHits int
	// Evictions counts accumulator evictions, including candidates
	// dropped when per-worker tables are re-pruned to γ at merge time.
	Evictions int
	// WorkerSubtrees lists the anchor subtrees processed by each scan
	// shard of the call, in shard order, exposing parallel skew. The
	// sequential path reports one entry; under the space search the
	// shard lists of every explored shape are concatenated in shape
	// order. Its sum always equals Subtrees.
	WorkerSubtrees []int
}

// add accumulates another run's counters into s (per-worker shards,
// per-shape runs). Per-shard subtree lists concatenate, so the
// per-worker attribution of every constituent run survives
// aggregation.
func (s *Stats) add(o Stats) {
	s.PostingsRead += o.PostingsRead
	s.Subtrees += o.Subtrees
	s.CandidatesSeen += o.CandidatesSeen
	s.TypeComputations += o.TypeComputations
	s.TypeCacheHits += o.TypeCacheHits
	s.Evictions += o.Evictions
	s.WorkerSubtrees = append(s.WorkerSubtrees, o.WorkerSubtrees...)
}

// NewEngine builds an engine over an existing index. The FastSS
// variant index is constructed over the index vocabulary.
func NewEngine(ix invindex.Source, cfg Config) *Engine {
	fss := fastss.Build(ix.VocabList(), fastss.Config{
		MaxErrors:    cfg.epsilon(),
		PartitionLen: cfg.partitionLen(),
	})
	return NewEngineWithFastSS(ix, fss, cfg)
}

// NewEngineLazy builds an engine whose FastSS variant index is
// constructed on first use rather than up front. Snapshot-backed
// engines use it to keep open cost O(schema): walking the mapped
// vocabulary to derive the variant dictionary is the one unavoidable
// O(vocab) step, and deferring it moves that cost off the open path
// onto the first query.
func NewEngineLazy(ix invindex.Source, cfg Config) *Engine {
	e := NewEngineWithFastSS(ix, nil, cfg)
	e.fssInit = func() *fastss.Index {
		return fastss.Build(ix.VocabList(), fastss.Config{
			MaxErrors:    cfg.epsilon(),
			PartitionLen: cfg.partitionLen(),
		})
	}
	return e
}

// fastss returns the variant dictionary, building it on first use when
// the engine was constructed lazily. Safe for concurrent callers.
func (e *Engine) fastss() *fastss.Index {
	e.fssOnce.Do(func() {
		if e.fss == nil && e.fssInit != nil {
			e.fss = e.fssInit()
		}
	})
	return e.fss
}

// NewEngineWithFastSS builds an engine reusing a prebuilt variant
// index (so that several engines with different scoring parameters can
// share it, as the β and γ sweeps do).
func NewEngineWithFastSS(ix invindex.Source, fss *fastss.Index, cfg Config) *Engine {
	e := &Engine{
		ix:    ix,
		fss:   fss,
		model: lm.New(ix.Vocabulary(), cfg.Mu),
		inf: &resulttype.Inferrer{
			Index:    ix,
			R:        cfg.R,
			MinDepth: cfg.minDepth(),
		},
		em:    ErrorModel{Beta: cfg.Beta},
		prior: newEntityPrior(ix, cfg.Prior, cfg.CustomPrior),
		cfg:   cfg,
	}
	if cfg.Phonetic {
		e.phon = phonetic.Build(ix.VocabList())
	}
	if cfg.Bigram {
		e.bigram = lm.NewBigram(ix, ix.Vocabulary(), cfg.BigramLambda)
	}
	return e
}

// SetSink attaches a metrics sink: every subsequent call records its
// latency, per-stage timing, and work counters there. A nil sink
// disables instrumentation entirely — the hot path then pays only a
// nil check per call. SetSink must not race with in-flight Suggest
// calls (attach before serving, like the other configuration).
func (e *Engine) SetSink(s *obs.Sink) { e.sink = s }

// Sink returns the attached metrics sink (nil when disabled).
func (e *Engine) Sink() *obs.Sink { return e.sink }

// Keywords tokenizes a raw query and attaches the variant sets. A
// keyword with an empty variant set makes every candidate invalid, so
// callers can detect hopeless queries early.
func (e *Engine) Keywords(query string) []Keyword {
	toks := e.cfg.Tokenizer.Tokenize(query)
	kws := make([]Keyword, len(toks))
	for i, tok := range toks {
		kws[i] = e.em.Keyword(tok, e.variants(tok))
	}
	return kws
}

// variants merges all enabled variant sources for one keyword:
// edit-distance neighbors (FastSS), phonetic equivalents, and
// synonyms. When a word arises from several sources, the smallest
// effective distance wins.
func (e *Engine) variants(tok string) []fastss.Match {
	matches := e.fastss().Search(tok)
	if e.phon == nil && e.cfg.Synonyms == nil {
		return matches
	}
	best := make(map[string]int, len(matches))
	for _, m := range matches {
		best[m.Word] = m.Dist
	}
	merge := func(word string, dist int) {
		if d, ok := best[word]; !ok || dist < d {
			best[word] = dist
		}
	}
	if e.phon != nil {
		for _, w := range e.phon.Search(tok) {
			merge(w, e.cfg.phoneticDistance())
		}
	}
	if e.cfg.Synonyms != nil {
		for _, s := range e.cfg.Synonyms[tok] {
			if s != tok && e.ix.Vocabulary().Contains(s) {
				merge(s, e.cfg.synonymDistance())
			}
		}
	}
	if len(best) == len(matches) {
		return matches
	}
	out := make([]fastss.Match, 0, len(best))
	for w, d := range best {
		out = append(out, fastss.Match{Word: w, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Word < out[j].Word
	})
	return out
}

// CancelCheckEvery is the cooperative cancellation granularity of the
// anchor-subtree scan: each scan shard polls its context once per this
// many anchor iterations (and once before the first), so a cancelled
// call stops within one check interval per worker. The scan's own work
// per anchor (list alignment, subtree collection, candidate
// enumeration) dwarfs one channel poll, so amortizing it 64-fold keeps
// the uncancelled hot path inside the existing ≤2% no-sink budget
// (BenchmarkSuggestContext proves it); calls carrying no cancelable
// context skip the polling entirely.
const CancelCheckEvery = 64

// Request is one suggestion call. The zero value of each option is the
// plain Algorithm 1 call.
type Request struct {
	// Query is the raw, possibly misspelt keyword query.
	Query string
	// Spaces selects the space-error search of Section VI-A: up to τ
	// (Config.MaxSpaceChanges) space insertions or deletions are
	// explored and every resulting tokenization competes in one ranked
	// list. Engines without a space model (SLCA/ELCA) ignore it.
	Spaces bool
	// Explain selects a per-query trace in Response.Explain. Tracing
	// forces stage timing on even without an attached sink, so the call
	// is marginally slower; suggestions are identical.
	Explain bool
}

// Response is the answer to one Request.
type Response struct {
	// Suggestions are the top-k alternative queries, best first; nil
	// when no candidate has a non-empty result.
	Suggestions []Suggestion
	// Stats are the work counters of this call. On cancellation they
	// still report the work done before the scan stopped.
	Stats Stats
	// Explain is the trace, non-nil only when Request.Explain was set
	// and the call completed.
	Explain *Explain
}

// Query answers one request: Algorithm 1 over the query's keywords, or
// over every space-edited tokenization when req.Spaces is set. A
// cancelled or expired ctx stops the anchor-subtree scan cooperatively
// (within CancelCheckEvery anchors per worker) and the call returns
// ctx.Err() with no suggestions and no trace. A context that can never
// be cancelled (such as context.Background()) costs nothing extra.
func (e *Engine) Query(ctx context.Context, req Request) (Response, error) {
	var res Response
	var err error
	if req.Spaces {
		res.Suggestions, res.Stats, res.Explain, err = e.suggestSpacesObserved(ctx, req.Query, req.Explain)
	} else {
		res.Suggestions, res.Stats, res.Explain, err = e.suggestObserved(ctx, req.Query, req.Explain)
	}
	return res, err
}

// Suggest returns the top-k alternative queries for the raw query,
// ranked by P(C|Q,T). It implements Algorithm 1 of the paper.
func (e *Engine) Suggest(query string) []Suggestion {
	res, _ := e.Query(context.Background(), Request{Query: query})
	return res.Suggestions
}

// SuggestDetailed is Suggest plus the work counters of this call.
func (e *Engine) SuggestDetailed(query string) ([]Suggestion, Stats) {
	res, _ := e.Query(context.Background(), Request{Query: query})
	return res.Suggestions, res.Stats
}

// SuggestExplained is Suggest plus a per-query trace: stage spans with
// per-worker attribution, per-keyword variant counts, cache and
// eviction counters, and the scored candidate table.
func (e *Engine) SuggestExplained(query string) ([]Suggestion, *Explain) {
	res, _ := e.Query(context.Background(), Request{Query: query, Explain: true})
	return res.Suggestions, res.Explain
}

// suggestObserved is the single user-call entry of the non-space path:
// it tokenizes, builds variants, runs Algorithm 1, and — when a sink
// is attached or a trace is requested — times every pipeline stage and
// publishes the aggregates.
func (e *Engine) suggestObserved(ctx context.Context, query string, explain bool) ([]Suggestion, Stats, *Explain, error) {
	if e.sink == nil && !explain {
		// Fast path: no instrumentation beyond the always-on counters.
		out, st, err := e.suggestKeywordsN(ctx, e.Keywords(query), e.cfg.workers(), nil)
		return out, st, nil, err
	}

	start := time.Now()
	rc := &runCtx{}
	t0 := start
	toks := e.cfg.Tokenizer.Tokenize(query)
	rc.stages[obs.StageTokenize] += time.Since(t0)

	t0 = time.Now()
	kws := e.keywordsFor(toks)
	rc.stages[obs.StageVariants] += time.Since(t0)

	out, st, err := e.suggestKeywordsN(ctx, kws, e.cfg.workers(), rc)
	total := time.Since(start)
	e.observeCall(total, rc, st)
	if err != nil {
		// The partial scan still consumed resources (observed above),
		// but a cancelled call yields neither suggestions nor a trace.
		return nil, st, nil, err
	}

	var ex *Explain
	if explain {
		ex = e.newExplain(query, kws, rc, st, out, total)
	}
	return out, st, ex, nil
}

// observeCall publishes one completed user call to the sink.
func (e *Engine) observeCall(total time.Duration, rc *runCtx, st Stats) {
	s := e.sink
	if s == nil {
		return
	}
	s.ObserveSuggest(total, &rc.stages)
	s.PostingsRead.Add(int64(st.PostingsRead))
	s.Subtrees.Add(int64(st.Subtrees))
	s.CandidatesSeen.Add(int64(st.CandidatesSeen))
	s.TypeCacheHits.Add(int64(st.TypeCacheHits))
	s.TypeCacheMisses.Add(int64(st.TypeComputations))
	s.Evictions.Add(int64(st.Evictions))
	if len(rc.workers) > 1 {
		var sum, max time.Duration
		for i := range rc.workers {
			d := rc.workers[i].Total()
			sum += d
			if d > max {
				max = d
			}
		}
		if sum > 0 {
			s.WorkerImbalance.Observe(float64(max) * float64(len(rc.workers)) / float64(sum))
		}
	}
}

// runCtx carries the per-call observability state. A nil *runCtx
// disables stage timing throughout the scan (the default when no sink
// is attached and no trace was requested); the struct is owned by one
// user call and filled by at most one goroutine at a time — parallel
// shards fill their own StageDurations entries.
type runCtx struct {
	// stages aggregates stage time across the whole call (parallel
	// shards summed).
	stages obs.StageDurations
	// workers holds the scan-stage durations of each shard, in shard
	// order (concatenated across shapes under the space search).
	workers []obs.StageDurations
}

// suggestKeywordsN runs Algorithm 1 over a prepared keyword list with
// an explicit scan worker count, sharding the anchor-subtree scan
// across that many goroutines. Each worker owns the top-level children
// whose ordinal is congruent to its shard index and skips the rest
// with one galloping SkipTo per foreign child, so every posting is
// still read at most once, by exactly one worker. Per-worker
// accumulator tables are merged (and re-pruned to γ) before finalize.
// The explicit count lets the space search force sequential inner
// scans when it already fans out over shapes (so one call never
// exceeds Config.Workers goroutines in total).
func (e *Engine) suggestKeywordsN(ctx context.Context, kws []Keyword, n int, rc *runCtx) ([]Suggestion, Stats, error) {
	acc, st, err := e.scanKeywords(ctx, kws, n, rc)
	if err != nil || acc == nil {
		return nil, st, err
	}
	out := e.finalizeTimed(kws, acc, rc)
	// The ranked suggestions hold the accumulators' words; only the
	// table's storage is recycled.
	acc.release()
	return out, st, nil
}

// scanKeywords is the scan half of Algorithm 1: it shards the
// anchor-subtree scan across n goroutines and returns the merged,
// γ-bounded accumulator table, without ranking it. It returns a nil
// table when the keyword list is empty or some keyword has no
// variants. The partials builder uses it directly to expose raw
// accumulators to a coordinator or segment merge; suggestKeywordsN
// ranks its result.
func (e *Engine) scanKeywords(ctx context.Context, kws []Keyword, n int, rc *runCtx) (*accumulators, Stats, error) {
	var st Stats
	if len(kws) == 0 {
		return nil, st, nil
	}
	for _, kw := range kws {
		if len(kw.Variants) == 0 {
			return nil, st, nil
		}
	}

	if n <= 1 {
		var tm *obs.StageDurations
		if rc != nil {
			tm = &obs.StageDurations{}
		}
		acc, st, err := e.scanShard(ctx, kws, 0, 1, tm)
		st.WorkerSubtrees = []int{st.Subtrees}
		if rc != nil {
			rc.stages.Add(tm)
			rc.workers = append(rc.workers, *tm)
		}
		if err != nil {
			return nil, st, err
		}
		return acc, st, nil
	}

	parts := make([]*accumulators, n)
	stats := make([]Stats, n)
	errs := make([]error, n)
	var tms []obs.StageDurations
	if rc != nil {
		tms = make([]obs.StageDurations, n)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var tm *obs.StageDurations
			if tms != nil {
				tm = &tms[i]
			}
			parts[i], stats[i], errs[i] = e.scanShard(ctx, kws, i, n, tm)
		}(i)
	}
	// Every shard polls the same context, so cancellation drains the
	// whole fan-out within one check interval per worker; the Wait
	// guarantees no scan goroutine outlives the call either way.
	wg.Wait()
	for _, s := range stats {
		st.add(s)
	}
	st.WorkerSubtrees = make([]int, n)
	for i := range stats {
		st.WorkerSubtrees[i] = stats[i].Subtrees
	}
	if rc != nil {
		for i := range tms {
			rc.stages.Add(&tms[i])
		}
		rc.workers = append(rc.workers, tms...)
	}
	for _, err := range errs {
		if err != nil {
			return nil, st, err
		}
	}
	acc, dropped := mergeAccumulators(parts, e.cfg.gamma())
	st.Evictions += dropped
	return acc, st, nil
}

// finalizeTimed is finalize with the rank stage attributed to rc.
func (e *Engine) finalizeTimed(kws []Keyword, acc *accumulators, rc *runCtx) []Suggestion {
	if rc == nil {
		return e.finalize(kws, acc)
	}
	t0 := time.Now()
	out := e.finalize(kws, acc)
	rc.stages[obs.StageRank] += time.Since(t0)
	return out
}

// scanShard is the scan loop of Algorithm 1 restricted to one shard of
// the anchor subtrees. With nShards == 1 it is exactly the sequential
// algorithm. Each shard reads the merged lists through its own
// cursors, so shards share only the immutable index. When tm is
// non-nil the shard attributes its wall time across the scan,
// enumerate, typeinfer, and accumulate stages; tm must be zeroed and
// owned by this shard alone.
//
// The shard polls ctx.Done() once per CancelCheckEvery anchor
// iterations (including before the first) and abandons the scan with
// ctx.Err() when the context is dead; the returned Stats then report
// the work done up to that point. A non-cancelable context (Done() ==
// nil) skips the polling entirely.
func (e *Engine) scanShard(ctx context.Context, kws []Keyword, shard, nShards int, tm *obs.StageDurations) (*accumulators, Stats, error) {
	var st Stats
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	done := ctx.Done()
	sinceCheck := 0
	d := e.cfg.minDepth()
	sc := getScanScratch(len(kws))
	defer sc.release()
	lists := sc.lists
	for i, kw := range kws {
		tokens := sc.tokens[:0]
		for _, v := range kw.Variants {
			tokens = append(tokens, v.Word)
		}
		sc.tokens = tokens // MergedListFor does not retain the slice
		lists[i] = e.ix.MergedListFor(tokens)
		lists[i].SetLinearSkip(e.cfg.LinearSkip)
		sc.occ[i].size(len(kw.Variants))
	}

	acc := getAccumulators(e.cfg.gamma(), e.cfg.Eviction)
	occ := sc.occ

	anchor, ok := e.maxHead(lists)
	for ok {
		if done != nil {
			if sinceCheck == 0 {
				select {
				case <-done:
					if tm != nil {
						tm[obs.StageScan] += time.Since(t0) -
							tm[obs.StageEnumerate] - tm[obs.StageTypeInfer] - tm[obs.StageAccumulate]
					}
					acc.release()
					return nil, st, ctx.Err()
				default:
				}
				sinceCheck = CancelCheckEvery
			}
			sinceCheck--
		}
		// anchor aliases the head of a list this iteration advances
		// (invindex.Entry's lifetime), so the subtree root is copied
		// before any list moves.
		sc.anchor = append(sc.anchor[:0], anchor.Truncate(d)...)
		g := sc.anchor
		if e.deadOrds != nil && len(g) >= 2 && e.deadOrds[g[1]] {
			// Tombstoned document: gallop every list past its subtree
			// without reading the postings. g is the scratch's own copy,
			// rewritten by the next iteration, so it becomes the target.
			target := g[:2]
			target[1]++
			for _, l := range lists {
				l.SkipTo(target)
			}
			anchor, ok = e.maxHead(lists)
			continue
		}
		if nShards > 1 {
			if len(g) < 2 {
				// An anchor directly under the root has no top-level
				// child ordinal; shard 0 owns it, the others drain the
				// group without recording anything.
				if shard != 0 {
					for _, l := range lists {
						l.CollectSubtree(g, func(invindex.Entry) {})
					}
					anchor, ok = e.maxHead(lists)
					continue
				}
			} else if c := int(g[1]) % nShards; c != shard {
				// Foreign child: gallop every list to this shard's next
				// top-level child, skipping the intervening postings
				// without reading them.
				target := g[:2] // the scratch's own copy, as above
				target[1] += uint32((shard - c + nShards) % nShards)
				for _, l := range lists {
					l.SkipTo(target)
				}
				anchor, ok = e.maxHead(lists)
				continue
			}
		}
		st.Subtrees++

		// Align every list to g and collect the subtree occurrences.
		for i := range occ {
			occ[i].reset()
		}
		complete := true
		for i, l := range lists {
			found := false
			l.CollectSubtree(g, func(entry invindex.Entry) {
				occ[i].add(entry.TokenIdx, entry.Posting)
				st.PostingsRead++
				found = true
			})
			if !found {
				complete = false
			}
		}
		if complete {
			e.enumerateAndScore(kws, sc, acc, &st, tm)
		}

		anchor, ok = e.maxHead(lists)
	}

	if tm != nil {
		// Everything not attributed to an inner stage is merged-list
		// scanning: anchor selection, galloping skips, collection.
		tm[obs.StageScan] += time.Since(t0) -
			tm[obs.StageEnumerate] - tm[obs.StageTypeInfer] - tm[obs.StageAccumulate]
	}
	return acc, st, nil
}

// maxHead returns the anchor: the largest Dewey code among the current
// heads. ok is false when any list is exhausted (no further subtree
// can contain all keywords).
func (e *Engine) maxHead(lists []*invindex.MergedList) (xmltree.Dewey, bool) {
	var max xmltree.Dewey
	for _, l := range lists {
		entry, ok := l.CurPos()
		if !ok {
			return nil, false
		}
		if max == nil || entry.Dewey.Compare(max) > 0 {
			max = entry.Dewey
		}
	}
	return max, max != nil
}

// groupEntry is one entity root observed for a (keyword, variant) at a
// given depth, with the summed term frequency under it. rootKey is the
// root's Dewey key, a slice of the scratch's key arena.
type groupEntry struct {
	rootKey []byte
	path    xmltree.PathID
	count   int32
}

// groupKey identifies one per-subtree grouping: a keyword's variant at
// an entity depth.
type groupKey struct {
	kw, variant, depth int
}

// enumerateAndScore enumerates every candidate query formable from the
// variants observed in the current subtree and accumulates entity
// scores. Occurrence groupings by entity depth are computed lazily and
// shared across the candidates that need the same (variant, depth)
// pair, so each occurrence is touched O(#depths) rather than
// O(#candidates) times. The cross product is walked with an odometer
// over the scratch's position counters — keyword order, last keyword
// fastest, exactly the order of the recursive formulation it replaces,
// but without a per-anchor closure.
func (e *Engine) enumerateAndScore(
	kws []Keyword,
	sc *scanScratch,
	acc *accumulators,
	st *Stats,
	tm *obs.StageDurations,
) {
	if tm != nil {
		t0 := time.Now()
		beforeTI, beforeAcc := tm[obs.StageTypeInfer], tm[obs.StageAccumulate]
		defer func() {
			// Enumeration is this call's wall time minus the inner
			// inference and accumulation work recorded during it.
			tm[obs.StageEnumerate] += time.Since(t0) -
				(tm[obs.StageTypeInfer] - beforeTI) - (tm[obs.StageAccumulate] - beforeAcc)
		}()
	}
	occ, present := sc.occ, sc.present
	for i := range kws {
		if len(occ[i].touched) == 0 {
			return
		}
		present[i] = append(present[i][:0], occ[i].touched...)
		sort.Ints(present[i])
	}

	sc.resetGroups()
	cand := &sc.cand
	choice, words, odo := cand.choice, cand.words, cand.odo
	for i := range kws {
		odo[i] = 0
		choice[i] = present[i][0]
		words[i] = kws[i].Variants[choice[i]].Word
	}
	for {
		e.scoreCandidate(kws, sc, acc, st, tm)
		i := len(kws) - 1
		for i >= 0 {
			odo[i]++
			if odo[i] < len(present[i]) {
				choice[i] = present[i][odo[i]]
				words[i] = kws[i].Variants[choice[i]].Word
				break
			}
			odo[i] = 0
			choice[i] = present[i][0]
			words[i] = kws[i].Variants[choice[i]].Word
			i--
		}
		if i < 0 {
			return
		}
	}
}

// candScratch holds per-enumeration buffers reused across candidates.
type candScratch struct {
	choice []int
	words  []string
	keyBuf []byte
	counts []int32
	odo    []int
	others [][]groupEntry
	pos    []int
}

// group returns this subtree's occurrences of (keyword kw, variant
// idx), grouped by entity root at the given depth (lazily computed).
// Occurrences arrive in document order, so equal roots are adjacent;
// adjacency is detected by comparing Dewey prefixes (alias slices), and
// the root key is encoded into the key arena once per distinct root.
func (e *Engine) group(sc *scanScratch, kw, idx, depth int) []groupEntry {
	k := groupKey{kw, idx, depth}
	if g, ok := sc.groups[k]; ok {
		return g
	}
	g := sc.newGroup()
	var prev xmltree.Dewey
	for _, p := range sc.occ[kw].byVariant[idx] {
		if p.Dewey.Depth() < depth {
			continue
		}
		if e.deadOrds != nil && len(p.Dewey) >= 2 && e.deadOrds[p.Dewey[1]] {
			// Occurrences inside tombstoned documents can still reach the
			// grouping through a root-level anchor (direct root text makes
			// the whole tree one anchor group); drop them here so dead
			// entities never contribute.
			continue
		}
		root := p.Dewey.Truncate(depth)
		if prev != nil && root.Compare(prev) == 0 {
			g[len(g)-1].count += p.TF
			continue
		}
		path := e.ix.PathTable().Ancestor(p.Path, depth)
		from := len(sc.keyArena)
		sc.keyArena = root.AppendKey(sc.keyArena)
		key := sc.keyArena[from:len(sc.keyArena):len(sc.keyArena)]
		g = append(g, groupEntry{rootKey: key, path: path, count: p.TF})
		prev = root
	}
	sc.groups[k] = g
	return g
}

// scoreCandidate scores one candidate (identified by per-keyword
// variant indices) within the current subtree's occurrences.
func (e *Engine) scoreCandidate(
	kws []Keyword,
	sc *scanScratch,
	acc *accumulators,
	st *Stats,
	tm *obs.StageDurations,
) {
	st.CandidatesSeen++
	cand := &sc.cand
	choice, words := cand.choice, cand.words
	buf := cand.keyBuf[:0]
	for i, w := range words {
		if i > 0 {
			buf = append(buf, 0)
		}
		buf = append(buf, w...)
	}
	cand.keyBuf = buf

	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	tk, cached := sc.typeCache[string(buf)] // no alloc: map lookup
	if cached {
		st.TypeCacheHits++
	} else {
		st.TypeComputations++
		best, _, ok := e.inf.Best(words)
		if !ok {
			best = xmltree.InvalidPath
		}
		tk = typedKey{path: best, key: string(buf)}
		sc.typeCache[tk.key] = tk
	}
	resType := tk.path
	if tm != nil {
		tm[obs.StageTypeInfer] += time.Since(t0)
		t1 := time.Now()
		defer func() { tm[obs.StageAccumulate] += time.Since(t1) }()
	}
	if resType == xmltree.InvalidPath {
		return
	}
	dp := e.pathsView().Depth(resType)
	norm := e.liveNorm(resType)
	if norm <= 0 {
		return
	}
	weight := 1.0
	for i, idx := range choice {
		weight *= kws[i].Variants[idx].Weight
	}

	// Intersect the per-keyword entity groupings at depth dp,
	// restricted to roots whose label path is the result type. The
	// first keyword's group drives the scan; the rest are probed in
	// order (all groups are in document order).
	base := e.group(sc, 0, choice[0], dp)
	if len(base) == 0 {
		return
	}

	// γ early termination (Section V-D, applied before the work it
	// saves): under the uniform prior every matched entity contributes
	// prior weight 1 × QueryProb ≤ 1, so this subtree's contribution to
	// a new candidate's estimate is at most weight/norm · |base|. If
	// even that bound cannot beat the current victim, add would reject
	// the candidate — skip the remaining grouping and intersection work.
	// The decision is identical to add's, so results do not change.
	if e.cfg.Prior == PriorUniform &&
		acc.wouldReject(tk.key, weight/norm*float64(len(base))) {
		st.Evictions++
		return
	}

	others := cand.others
	for i := 1; i < len(kws); i++ {
		others[i-1] = e.group(sc, i, choice[i], dp)
		if len(others[i-1]) == 0 {
			return
		}
	}

	var sum, bgMatched float64
	matched := 0
	var witness []byte
	counts := cand.counts
	pos := cand.pos
	for i := range pos {
		pos[i] = 0
	}
	for _, ge := range base {
		if ge.path != resType {
			continue
		}
		counts[0] = ge.count
		ok := true
		for j, og := range others {
			// Advance this keyword's cursor to ge.rootKey.
			for pos[j] < len(og) && bytes.Compare(og[pos[j]].rootKey, ge.rootKey) < 0 {
				pos[j]++
			}
			if pos[j] >= len(og) || !bytes.Equal(og[pos[j]].rootKey, ge.rootKey) {
				ok = false
				break
			}
			counts[j+1] = og[pos[j]].count
		}
		if !ok {
			continue
		}
		docLen := e.ix.SubtreeLenKey(ge.rootKey)
		pw := e.prior.weight(ge.rootKey, docLen)
		sum += pw * e.model.QueryProb(words, counts, docLen)
		if e.cfg.ScoreMode == ScoreModeExact {
			bgMatched += pw * e.model.BackgroundOnlyProb(words, docLen)
		}
		if matched == 0 {
			witness = ge.rootKey
		}
		matched++
	}
	if matched == 0 {
		return
	}

	before := acc.evictions
	acc.add(tk.key, words, choice, resType, weight/norm, sum, bgMatched, matched, witness)
	st.Evictions += acc.evictions - before
}

// finalize converts accumulators into the ranked top-k suggestions.
// Every accumulator is scored, but only the k winners are built: their
// witnesses decoded and their words copied into one fresh backing
// array, so nothing returned pins the table's slabs.
func (e *Engine) finalize(kws []Keyword, acc *accumulators) []Suggestion {
	k := e.cfg.k()
	top := make([]rankedAccum, 0, min(k, acc.len()))
	for _, a := range acc.m {
		norm := e.liveNorm(a.resultType)
		if norm <= 0 {
			continue
		}
		sum := a.sum
		if e.cfg.ScoreMode == ScoreModeExact {
			sum += e.backgroundMass(a.words, a.resultType) - a.bgMatched
		}
		pCT := sum / norm
		weight := 1.0
		for i, idx := range a.choice {
			weight *= kws[i].Variants[idx].Weight
		}
		if e.bigram != nil {
			weight *= e.bigram.SequenceProb(a.words)
		}
		top = insertTopK(top, k, rankedAccum{a: a, score: weight * pCT})
	}
	if len(top) == 0 {
		return nil
	}

	nw := 0
	for _, r := range top {
		nw += len(r.a.words)
	}
	words := make([]string, 0, nw)
	out := make([]Suggestion, len(top))
	for i, r := range top {
		a := r.a
		dist := 0
		for j, idx := range a.choice {
			dist += kws[j].Variants[idx].Dist
		}
		var witness xmltree.Dewey
		if a.witness != "" {
			witness = xmltree.DeweyFromKey(a.witness)
		}
		from := len(words)
		words = append(words, a.words...)
		out[i] = Suggestion{
			Words:        words[from:len(words):len(words)],
			Score:        r.score,
			ResultType:   a.resultType,
			Entities:     a.entities,
			EditDistance: dist,
			Witness:      witness,
		}
	}
	return out
}

// rankedAccum is one accumulator with its final score, a contender
// for the top k.
type rankedAccum struct {
	a     *accum
	score float64
}

// insertTopK inserts r into top — at most k contenders, best first in
// rankBefore order — and drops whichever contender falls to place k+1.
// The order is total over distinct word sequences, so the k kept are
// exactly the first k of a full sort, whatever the insertion order.
func insertTopK(top []rankedAccum, k int, r rankedAccum) []rankedAccum {
	before := func(i int) bool {
		return rankBefore(r.score, r.a.words, top[i].score, top[i].a.words)
	}
	if len(top) == k && !before(k-1) {
		return top
	}
	i := sort.Search(len(top), before)
	if len(top) < k {
		top = append(top, rankedAccum{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = r
	return top
}

// sortSuggestions orders suggestions by rankBefore.
func sortSuggestions(out []Suggestion) {
	sort.Slice(out, func(i, j int) bool {
		return rankBefore(out[i].Score, out[i].Words, out[j].Score, out[j].Words)
	})
}

// rankBefore is the ranking order of suggestions: descending score,
// ties broken by query text (strings.Join(words, " ")) for determinism.
func rankBefore(si float64, wi []string, sj float64, wj []string) bool {
	if si != sj {
		return si > sj
	}
	return joinedLess(wi, wj)
}

// joinedLess reports whether strings.Join(a, " ") < strings.Join(b, " "),
// comparing the joined forms byte by byte without building them.
func joinedLess(a, b []string) bool {
	x, y := joinedBytes{words: a}, joinedBytes{words: b}
	for {
		cx, okx := x.next()
		cy, oky := y.next()
		switch {
		case !okx || !oky:
			return !okx && oky
		case cx != cy:
			return cx < cy
		}
	}
}

// joinedBytes reads strings.Join(words, " ") one byte at a time.
type joinedBytes struct {
	words []string
	w, i  int // next byte is words[w][i], or the separator after words[w]
}

func (j *joinedBytes) next() (byte, bool) {
	for j.w < len(j.words) {
		if s := j.words[j.w]; j.i < len(s) {
			j.i++
			return s[j.i-1], true
		}
		j.w, j.i = j.w+1, 0
		if j.w < len(j.words) {
			return ' ', true
		}
	}
	return 0, false
}

// backgroundMass is Σ over all entities of type p of the prior-weighted
// background-only product — the unmatched-entity contribution of the
// exact scoring mode.
func (e *Engine) backgroundMass(words []string, p xmltree.PathID) float64 {
	var sum float64
	if e.cfg.Prior == PriorUniform {
		for _, l := range e.ix.SubtreeLensByPath(p) {
			sum += e.model.BackgroundOnlyProb(words, l)
		}
		return sum
	}
	var kb []byte
	for _, key := range e.ix.RootsByPath(p) {
		kb = append(kb[:0], key...)
		l := e.ix.SubtreeLenKey(kb)
		sum += e.prior.weight(kb, l) * e.model.BackgroundOnlyProb(words, l)
	}
	return sum
}
