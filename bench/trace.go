package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"xclean/internal/core"
	"xclean/internal/tokenizer"
)

// span is one timed call in a traced run. Spans of one query share a
// request id; the end-to-end call is the root (parent 0) and the layer
// replays issued right after it, with the same input, are its children.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Request  int    `json:"request"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// One goroutine owns a tracer; idBase keeps two tracers' ids apart.
type tracer struct {
	workload string
	epoch    time.Time
	idBase   int
	spans    []span
}

// do times fn as a span and returns its id.
func (t *tracer) do(name string, request, parent int, fn func()) int {
	s := time.Since(t.epoch)
	fn()
	e := time.Since(t.epoch)
	id := t.idBase + len(t.spans) + 1
	t.spans = append(t.spans, span{id, name, t.workload, request, parent, int64(s), int64(e)})
	return id
}

// durations returns the microsecond durations of the spans with the
// given name, in issue order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].EndNs-t.spans[i].StartNs)/1e3)
		}
	}
	return out
}

// perRequest returns, for each request that has spans of the given
// name, the median of their durations (µs), in request order.
func (t *tracer) perRequest(name string) []float64 {
	by := map[int][]float64{}
	for i := range t.spans {
		if t.spans[i].Name == name {
			by[t.spans[i].Request] = append(by[t.spans[i].Request], float64(t.spans[i].EndNs-t.spans[i].StartNs)/1e3)
		}
	}
	reqs := make([]int, 0, len(by))
	for req := range by {
		reqs = append(reqs, req)
	}
	sort.Ints(reqs)
	out := make([]float64, len(reqs))
	for i, req := range reqs {
		out[i] = median(by[req])
	}
	return out
}

// selfTimeUs is the mean over requests of a span's duration minus the
// part its child spans cover. The children are replays — re-executions
// issued after the call, not a dissection of it — so this is an
// approximation and is labelled as one wherever it is shown.
func (t *tracer) selfTimeUs(name string) float64 {
	children := map[int]float64{}
	for i := range t.spans {
		children[t.spans[i].Parent] += float64(t.spans[i].EndNs-t.spans[i].StartNs) / 1e3
	}
	var self []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			self = append(self, float64(t.spans[i].EndNs-t.spans[i].StartNs)/1e3-children[t.spans[i].ID])
		}
	}
	return mean(self)
}

// The span name of each workload's end-to-end call; the same name is
// used when the shape is replayed as a child in another workload's
// traced run, so a layer's numbers are gathered the same way wherever
// they come from.
var shapeSpan = map[string]string{
	"mono_heap":    "heap.suggest",
	"stack_live":   "segment.suggest",
	"snap_mmap":    "snapfile.suggest",
	"http_zipf":    "server.loopback",
	"cluster_2x2":  "cluster.loopback",
	"ingest_mixed": "ingest.read",
}

// tracedRequests bounds the traced loop: every request fans out into a
// dozen replays, so a few hundred requests fill the run's budget.
func (c runConfig) tracedRequests() int {
	if c.smoke {
		return 30
	}
	return 300
}

// requestFor adapts a pool query to another shape: nil when the shape
// does not serve the query's set, and the shape's single ε otherwise.
func requestFor(def *workloadDef, q *query) *query {
	served := false
	for _, s := range def.sets {
		if s == q.Set {
			served = true
		}
	}
	if !served {
		return nil
	}
	c := *q
	c.idx = -1
	if def.eps > 0 {
		c.Eps = def.eps
	}
	return &c
}

// replayPasses is how often each layer replays the requests; a layer's
// figure is a percentile over requests of the per-request median across
// these passes, as the end-to-end timings of the library workloads are.
const replayPasses = 3

// runTraced is the traced run of one workload. The workload's own
// request stream runs first, each call a root span. Then every layer is
// replayed over the same requests, one layer at a time, each replay a
// child of its request's root: a layer is timed with its own data warm,
// as it is end to end, instead of being evicted by a dozen other
// indexes between two calls. Then the write-path probe and the layer
// micro-probes run on the same inputs. The run yields every per-layer
// metric and writes out/trace.json; end-to-end metrics are never taken
// from it.
func runTraced(def *workloadDef, cfg runConfig) (*workloadResult, error) {
	r := &run{
		cfg: cfg, def: def, oneSetUp: true,
		dir: filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%s-%d", def.name, os.Getpid())),
		res: &workloadResult{Workload: def.name, Metrics: map[string]metric{}},
	}
	defer r.closeShape()
	r.res.Host = readHost()
	calibStart := calibNs(cfg.calibTries())
	if _, err := r.setUp(); err != nil {
		return nil, err
	}
	lb, err := buildLab(r)
	if err != nil {
		return nil, err
	}
	defer lb.close()

	warmSeq, seq := r.timedSeq()
	if n := cfg.tracedRequests(); len(seq) > n {
		seq = seq[:n]
	}
	r.in.fingerprintOps(def.name, r.pool, seq)
	// A traced run replays a few hundred requests, so a short lead-in
	// is warm-up enough.
	if len(warmSeq) > 5*len(seq) {
		warmSeq = warmSeq[:5*len(seq)]
	}
	warmShape := *r.sh
	warmShape.clients = 1
	closedLoop(&warmShape, warmSeq)

	// The same requests untraced, for the tracing overhead. A cache in
	// the path would answer a request's repeat from memory, so the Zipf
	// workload traces the next stretch of its stream instead.
	plain := seq
	if def.zipf {
		_, all := r.timedSeq()
		plain = all[len(seq) : 2*len(seq)]
	}
	untraced := make([]float64, len(plain))
	for i, qi := range plain {
		t0 := time.Now()
		_, err := r.sh.serve(0, &r.pool[qi])
		untraced[i] = float64(time.Since(t0)) / 1e3
		if err != nil {
			return nil, err
		}
	}

	// The workload's own calls: the root spans.
	tr := &tracer{workload: def.name, epoch: time.Now()}
	web := lb.shapes["http_zipf"]
	var cacheBefore, cacheAfter serverCounts
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if r.sh == web {
		cacheBefore = lb.cacheCounts()
	}
	roots := make([]int, len(seq))
	results := make([]any, len(seq))
	for n, qi := range seq {
		var serveErr error
		roots[n] = tr.do(shapeSpan[def.name], n+1, 0, func() { results[n], serveErr = r.sh.serve(0, &r.pool[qi]) })
		r.res.Attempted++
		if serveErr != nil {
			r.res.fail("%q: %v", r.pool[qi].Dirty, serveErr)
			results[n] = nil
		}
	}
	runtime.ReadMemStats(&after)
	if r.sh == web {
		cacheAfter = lb.cacheCounts()
	}

	// replay sends every request the layer serves through call: an
	// untimed lead-in over the first fifth, then replayPasses timed
	// passes. It returns the span ids of the first timed pass.
	all := func(q *query) *query { return q }
	replay := func(name string, parents []int, adapt func(*query) *query, call func(n int, q *query)) []int {
		ids := make([]int, len(seq))
		for pass := 0; pass <= replayPasses; pass++ {
			for n, qi := range seq {
				q := adapt(&r.pool[qi])
				if q == nil {
					continue
				}
				if pass == 0 {
					if n < len(seq)/5 {
						call(n, q)
					}
					continue
				}
				id := tr.do(name, n+1, parents[n], func() { call(n, q) })
				if pass == 1 {
					ids[n] = id
				}
			}
		}
		return ids
	}

	// The core layer on the heap index, at each query's own ε; its work
	// counts and stage clocks are the program's own.
	coreStats := make([]core.Stats, len(seq))
	coreIDs := replay("core.suggest", roots, all, func(n int, q *query) {
		_, coreStats[n] = lb.core[q.Corpus][q.Eps].SuggestDetailed(q.Dirty)
	})
	replay("tokenizer.tokenize", coreIDs, all, func(_ int, q *query) { tokenizer.TokenizeRaw(q.Dirty) })
	replay("core.keywords", coreIDs, all, func(_ int, q *query) { lb.core[q.Corpus][q.Eps].Keywords(q.Dirty) })
	stageUs := make([][]float64, len(seq))
	replay("core.explained", roots, all, func(n int, q *query) {
		_, ex := lb.core[q.Corpus][q.Eps].SuggestExplained(q.Dirty)
		st := make([]float64, len(stageNames))
		for _, sp := range ex.Spans {
			for i, name := range stageNames {
				if sp.Stage == name {
					st[i] += float64(sp.DurationNs) / 1e3
				}
			}
		}
		stageUs[n] = st
	})

	// Every other serving shape. The heap monolith's answer is the
	// reference for the workload's own, as it is with tracing off.
	control := make([]any, len(seq))
	for i := range workloads {
		other := &workloads[i]
		sh := lb.shapes[other.name]
		if sh == r.sh || sh == nil {
			continue
		}
		if sh == web {
			cacheBefore = lb.cacheCounts()
		}
		replay(shapeSpan[other.name], roots, func(q *query) *query { return requestFor(other, q) }, func(n int, q *query) {
			res, _ := sh.serve(0, q)
			if other.selfRef {
				control[n] = res
			}
		})
		if sh == web {
			cacheAfter = lb.cacheCounts()
		}
	}
	for n, qi := range seq {
		if results[n] == nil {
			continue
		}
		ans, repeat, err := r.sh.answer(results[n])
		switch {
		case err != nil:
			r.res.fail("%q: %v", r.pool[qi].Dirty, err)
		case !repeat && control[n] != nil:
			want, _, _ := engineAnswer(control[n])
			if err := sameAnswers(ans, want); err != nil {
				r.res.fail("%q: %v", r.pool[qi].Dirty, err)
			}
		}
	}

	// The DBLP requests through the heap monolith at the single-engine
	// shapes' ε (the denominator of the stack's overhead ratio), through
	// the coordinator directly, and through each shard leg and the merge
	// on their own.
	dblpOnly := func(q *query) *query {
		if q.Corpus != corpusDBLP {
			return nil
		}
		return q
	}
	heap2 := lb.shapes["mono_heap"].engines[corpusDBLP][2]
	replay("heap.suggest_eps2", roots, dblpOnly, func(_ int, q *query) { heap2.Suggest(q.Dirty) })
	cp := lb.shapes["cluster_2x2"].cluster
	partial, coordinated := 0, 0
	replay("cluster.suggest", roots, dblpOnly, func(_ int, q *query) {
		coordinated++
		if cp.suggestPartial(q.Dirty) {
			partial++
		}
	})
	sets := make([][]core.PartialSet, len(seq))
	for n := range sets {
		sets[n] = make([]core.PartialSet, len(cp.shards))
	}
	for i, se := range cp.shards {
		replay(fmt.Sprintf("cluster.leg%d", i), roots, dblpOnly, func(n int, q *query) {
			sets[n][i], _ = se.SuggestPartials(q.Dirty)
		})
	}
	replay("core.merge_partials", roots, dblpOnly, func(n int, _ *query) { core.MergePartials(core.MergeConfig{K: 10}, sets[n]) })

	m := map[string]float64{}
	p50 := func(name string) float64 { return percentile(tr.perRequest(name), 50) }
	var stats core.Stats
	stages := make([]float64, len(stageNames))
	for n := range seq {
		st := coreStats[n]
		stats.PostingsRead += st.PostingsRead
		stats.Subtrees += st.Subtrees
		stats.CandidatesSeen += st.CandidatesSeen
		stats.TypeComputations += st.TypeComputations
		stats.TypeCacheHits += st.TypeCacheHits
		stats.Evictions += st.Evictions
		for i := range stages {
			stages[i] += stageUs[n][i]
		}
	}
	nReq := float64(len(seq))
	m["tokenizer.tokenize_ns"] = p50("tokenizer.tokenize") * 1e3
	m["core.keywords_us"] = p50("core.keywords")
	m["core.postings_read"] = float64(stats.PostingsRead) / nReq
	m["core.subtrees"] = float64(stats.Subtrees) / nReq
	m["core.candidates_seen"] = float64(stats.CandidatesSeen) / nReq
	m["core.type_computations"] = float64(stats.TypeComputations) / nReq
	m["core.evictions"] = float64(stats.Evictions) / nReq
	m["core.type_cache_hit_ratio"] = ratio(float64(stats.TypeCacheHits), float64(stats.TypeComputations+stats.TypeCacheHits))
	for i, name := range stageNames {
		m["core.stage."+name+"_us"] = stages[i] / nReq
	}
	m["core.merge_partials_us"] = p50("core.merge_partials")
	m["segment.suggest_p50_us"] = p50("segment.suggest")
	m["segment.depth_overhead_ratio"] = ratio(m["segment.suggest_p50_us"], p50("heap.suggest_eps2"))
	m["snapfile.reader_overhead_ratio"] = ratio(p50("snapfile.suggest"), p50("heap.suggest"))
	m["cluster.suggest_p50_us"] = p50("cluster.suggest")
	leg0, leg1 := tr.perRequest("cluster.leg0"), tr.perRequest("cluster.leg1")
	legMax := make([]float64, len(leg0))
	for i := range leg0 {
		legMax[i] = leg0[i]
		if leg1[i] > legMax[i] {
			legMax[i] = leg1[i]
		}
	}
	m["cluster.leg_max_p50_us"] = percentile(legMax, 50)
	m["cluster.fanout_overhead_us"] = m["cluster.suggest_p50_us"] - m["cluster.leg_max_p50_us"]
	m["cluster.partial_share"] = ratio(float64(partial), float64(coordinated))
	m["cluster.hedge_share"] = cp.hedgeShare()
	m["cache.hit_ratio"] = ratio(float64(cacheAfter.hits-cacheBefore.hits),
		float64(cacheAfter.hits+cacheAfter.misses-cacheBefore.hits-cacheBefore.misses))
	m["server.shed_share"] = ratio(float64(cacheAfter.sheds-cacheBefore.sheds), float64(cacheAfter.requests-cacheBefore.requests))
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["bench.trace_overhead_share"] = ratio(percentile(tr.durations(shapeSpan[def.name]), 50), percentile(untraced, 50)) - 1

	wt, err := lb.writeProbe(r, m)
	if err != nil {
		return nil, err
	}
	if err := lb.microProbes(r, m); err != nil {
		return nil, err
	}
	calibEnd := calibNs(cfg.calibTries())
	m["bench.calib_ns"] = calibEnd

	for _, spec := range perLayer {
		v, ok := m[spec.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", spec.name)
		}
		r.res.set(spec.name, v)
	}
	for name := range m {
		if _, ok := metricSpecs[name]; !ok {
			return nil, fmt.Errorf("traced run measured %s, which metrics.go does not list", name)
		}
	}

	r.res.Correct = r.res.Failed == 0
	r.res.Fingerprints = r.in.fp
	r.res.Host.LoadAfter = loadAverage()
	r.res.Unstable, r.res.UnstableWhy = noiseGuard(calibStart, calibEnd, r.res.Host.LoadAfter, r.res.Host.NProc)

	spans := append(tr.spans, wt.spans...)
	path := filepath.Join(cfg.outDir, "trace.json")
	self := tr.selfTimeUs("core.suggest")
	if err := writeTrace(path, def.name, spans, self); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans of %d requests written to %s\n", len(spans), len(seq), path)
	fmt.Printf("trace: core.suggest self time ≈ %.1f us/call (approximate: its span minus its replayed children);\n"+
		"       core.stage.* are the program's own stage clocks, as SuggestExplained returns them\n", self)
	return r.res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeTrace(path, workload string, spans []span, coreSelfUs float64) error {
	doc := struct {
		Workload string `json:"workload"`
		Note     string `json:"note"`
		// CoreSuggestSelfUs is approximate: replays are re-executions.
		CoreSuggestSelfUs float64 `json:"core_suggest_self_us_approx"`
		Spans             []span  `json:"spans"`
	}{
		Workload: workload,
		Note: "root spans (parent 0) are the workload's end-to-end calls; children are replays of the same " +
			"query through one layer, issued right after the call — re-executions, not a dissection of it",
		CoreSuggestSelfUs: coreSelfUs,
		Spans:             spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// suggestPartial calls the coordinator directly and reports whether the
// answer was missing a shard (an error counts as missing all of them).
func (cp *clusterParts) suggestPartial(q string) bool {
	res, err := cp.coord.Suggest(context.Background(), q, "", "", nil)
	return err != nil || res.Partial
}

// hedgeShare is hedged attempts over all attempts, across replicas.
func (cp *clusterParts) hedgeShare() float64 {
	var hedges, requests int64
	for _, sm := range cp.coord.MetricsSnapshot() {
		hedges += sm.Hedges
		requests += sm.Requests
	}
	if requests == 0 {
		return 0
	}
	return float64(hedges) / float64(requests)
}

// writeTracer guards the write probe's spans: the writer and the reader
// are two goroutines.
type writeTracer struct {
	mu sync.Mutex
	tracer
}

func (t *writeTracer) do(name string, request int, fn func()) {
	s := time.Since(t.epoch)
	fn()
	e := time.Since(t.epoch)
	t.mu.Lock()
	id := t.idBase + len(t.spans) + 1
	t.spans = append(t.spans, span{id, name, t.workload, request, 0, int64(s), int64(e)})
	t.mu.Unlock()
}
