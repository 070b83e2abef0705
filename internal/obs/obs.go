// Package obs is the zero-dependency observability layer of the
// XClean service: atomic counters, gauges, and fixed-bucket streaming
// histograms, plus the stage taxonomy of one suggestion request
// (tokenize → variant generation → merged-list scan → anchor/subtree
// enumeration → result-type inference → accumulate/prune → top-k
// rank).
//
// Everything here is always compiled into the engine; the engine
// guards every instrumentation site with a nil-sink check, so a build
// with no sink attached pays only an untaken branch (budget: ≤2% on
// BenchmarkSuggest; no gate enforces it, the BenchmarkSuggest /
// BenchmarkSuggestObserved pair run A/B by hand shows the cost). All
// types are safe for concurrent use: writers use atomics only, and readers
// (Snapshot, WritePrometheus) observe a possibly-torn but monotone
// view, the usual contract of a Prometheus scrape.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Stage enumerates the pipeline phases of one suggestion request, in
// execution order. The scan stages (StageScan..StageAccumulate) run
// once per worker shard; the rest are whole-call stages.
type Stage int

const (
	// StageTokenize covers query tokenization (and, under the space
	// search, shape expansion).
	StageTokenize Stage = iota
	// StageVariants covers ε-variant generation: FastSS search plus
	// phonetic and synonym merging, per keyword.
	StageVariants
	// StageScan covers merged-list advancement: anchor selection,
	// galloping skips, and subtree collection.
	StageScan
	// StageEnumerate covers candidate enumeration over the variants
	// present in each anchor subtree (excluding the inner inference and
	// accumulation work, reported separately).
	StageEnumerate
	// StageTypeInfer covers result-type inference, both cache lookups
	// and FindResultType computations.
	StageTypeInfer
	// StageAccumulate covers entity-group intersection, language-model
	// scoring, and accumulator insertion/eviction.
	StageAccumulate
	// StageRank covers finalization: normalization, bigram weighting,
	// sorting, and the top-k cut (and, under the space search, the
	// cross-shape merge).
	StageRank
	// NumStages is the number of pipeline stages.
	NumStages
)

var stageNames = [NumStages]string{
	"tokenize", "variants", "scan", "enumerate", "typeinfer", "accumulate", "rank",
}

// String returns the stable metric-label name of the stage.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// Stages lists every stage in execution order (for iteration).
func Stages() [NumStages]Stage {
	var out [NumStages]Stage
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// StageDurations accumulates wall time per stage for one run (one
// worker shard, or one whole call). It is not safe for concurrent use;
// each goroutine fills its own and the owner merges them.
type StageDurations [NumStages]time.Duration

// Add folds another run's stage times into d.
func (d *StageDurations) Add(o *StageDurations) {
	for i := range d {
		d[i] += o[i]
	}
}

// Total returns the sum over all stages.
func (d *StageDurations) Total() time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

// Span is one timed stage of one request, attributed to the worker
// shard that ran it. Worker -1 marks whole-call stages (tokenize,
// variants, rank); scan-phase spans carry the shard index so parallel
// skew is visible per request.
type Span struct {
	Stage      string `json:"stage"`
	Worker     int    `json:"worker"`
	DurationNs int64  `json:"durationNs"`
}

// SpansOf flattens call-level stage durations plus per-worker scan
// durations into the span list of one request. Zero-duration stages
// are kept (a stage that ran in under a clock tick is still part of
// the taxonomy) but stages that never ran on a worker (all-zero shard
// entries, e.g. the scan stages at call level) are skipped.
func SpansOf(call *StageDurations, workers []StageDurations) []Span {
	var out []Span
	add := func(st Stage, worker int, d time.Duration) {
		out = append(out, Span{Stage: st.String(), Worker: worker, DurationNs: int64(d)})
	}
	add(StageTokenize, -1, call[StageTokenize])
	add(StageVariants, -1, call[StageVariants])
	for wi := range workers {
		for st := StageScan; st <= StageAccumulate; st++ {
			add(st, wi, workers[wi][st])
		}
	}
	add(StageRank, -1, call[StageRank])
	return out
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the current value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 with atomic add (CAS loop), for histogram
// sums.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// DurationBuckets are the default histogram bounds for request and
// stage latencies, in seconds: 25µs to 10s, roughly 2–2.5× apart, so
// both the microsecond cache-hit regime and multi-second outliers
// resolve.
var DurationBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// RatioBuckets are histogram bounds for unitless ratios ≥ 1 (worker
// imbalance: max shard time over mean shard time).
var RatioBuckets = []float64{1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10}

// Histogram is a fixed-bucket streaming histogram. Values are unit-
// agnostic float64s; latencies are recorded in seconds (Prometheus
// convention). Observation is one binary search plus three atomic
// adds — no locks, no allocation.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
	// exemplars holds the most recent exemplar per bucket (nil until
	// one is attached); see ObserveExemplar.
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (a final +Inf bucket is implicit). The slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// NewDurationHistogram is NewHistogram over DurationBuckets.
func NewDurationHistogram() *Histogram { return NewHistogram(DurationBuckets) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records one duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Exemplar pins one concrete request to a histogram bucket: the trace
// and request IDs of a real observation that landed there, so a
// latency bucket in a dashboard links straight to /tracez?id= and the
// logs. Each bucket keeps only its most recent exemplar (an atomic
// pointer swap — last writer wins, which is the Prometheus exemplar
// convention).
type Exemplar struct {
	Value     float64
	TraceID   string
	RequestID string
	UnixNano  int64
}

// ObserveExemplar is Observe plus an exemplar attached to the bucket
// the value lands in. Empty IDs attach nothing (plain Observe).
func (h *Histogram) ObserveExemplar(v float64, traceID, requestID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID == "" && requestID == "" {
		return
	}
	h.exemplars[i].Store(&Exemplar{
		Value:     v,
		TraceID:   traceID,
		RequestID: requestID,
		UnixNano:  time.Now().UnixNano(),
	})
}

// ObserveDurationExemplar is ObserveExemplar over a duration in
// seconds.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID, requestID string) {
	h.ObserveExemplar(d.Seconds(), traceID, requestID)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Bucket is one cumulative histogram bucket: Count observations were
// ≤ Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders Le as a string ("0.05", "+Inf") because the last
// bucket's bound is infinite, which a JSON number cannot carry.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatFloat(b.Le), b.Count)), nil
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Le == "+Inf" {
		b.Le = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.Le, 64)
		if err != nil {
			return err
		}
		b.Le = v
	}
	b.Count = raw.Count
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram, with
// cumulative bucket counts (Prometheus semantics). The final bucket's
// Le is +Inf and its Count equals Count.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{Le: le, Count: cum}
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the owning bucket, the standard Prometheus
// histogram_quantile estimate. Returns 0 on an empty histogram; the
// +Inf bucket clamps to its lower bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) >= rank {
			lo, loCount := 0.0, int64(0)
			if i > 0 {
				lo, loCount = s.Buckets[i-1].Le, s.Buckets[i-1].Count
			}
			if math.IsInf(b.Le, 1) {
				return lo
			}
			span := float64(b.Count - loCount)
			if span <= 0 {
				return b.Le
			}
			return lo + (b.Le-lo)*(rank-float64(loCount))/span
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// Sink aggregates the engine-side metrics of every observed suggestion
// call. A nil *Sink disables instrumentation (the engine checks once
// per call); a single Sink may be shared by several engines (e.g.
// across Refresh generations) — all fields are concurrency-safe.
type Sink struct {
	// Queries counts observed suggestion calls.
	Queries Counter
	// QueryDur is the end-to-end engine latency distribution (seconds).
	QueryDur *Histogram
	// Stage holds one latency histogram per pipeline stage; parallel
	// shards' times are summed per call before observation, so stage
	// histograms measure CPU-time-like totals, not wall overlap.
	Stage [NumStages]*Histogram
	// PostingsRead etc. mirror core.Stats, summed over all calls.
	PostingsRead    Counter
	Subtrees        Counter
	CandidatesSeen  Counter
	TypeCacheHits   Counter
	TypeCacheMisses Counter
	Evictions       Counter
	// WorkerImbalance records max/mean scan-shard time per parallel
	// call — 1.0 is perfect balance.
	WorkerImbalance *Histogram
	// SlowQueries counts calls whose latency crossed the slow-query
	// threshold (maintained by the serving layer).
	SlowQueries Counter

	// SegmentCount, TailDocs, and Tombstones describe the segmented
	// index stack serving this sink's engine: sealed segments, documents
	// buffered in the mutable tail, and logically-removed documents not
	// yet purged by compaction. All zero on a monolithic engine.
	SegmentCount Gauge
	TailDocs     Gauge
	Tombstones   Gauge
	// DocsAdded and DocsRemoved count live write operations applied to
	// the segment stack.
	DocsAdded   Counter
	DocsRemoved Counter
	// CompactionRuns counts completed compaction operations (merges and
	// tombstone purges), CompactionBytes the postings bytes of the
	// segments they published, and CompactionDur the per-run latency
	// distribution.
	CompactionRuns  Counter
	CompactionBytes Counter
	CompactionDur   *Histogram
}

// NewSink builds a sink with the default bucket layout.
func NewSink() *Sink {
	s := &Sink{
		QueryDur:        NewDurationHistogram(),
		WorkerImbalance: NewHistogram(RatioBuckets),
		CompactionDur:   NewDurationHistogram(),
	}
	for i := range s.Stage {
		s.Stage[i] = NewDurationHistogram()
	}
	return s
}

// ObserveSuggest records one completed suggestion call: total latency
// plus the per-stage aggregate. Stages that did not run (zero) are
// skipped so their histograms count only calls that exercised them.
func (s *Sink) ObserveSuggest(total time.Duration, stages *StageDurations) {
	s.Queries.Inc()
	s.QueryDur.ObserveDuration(total)
	if stages == nil {
		return
	}
	for i, d := range stages {
		if d > 0 {
			s.Stage[i].ObserveDuration(d)
		}
	}
}

// SinkSnapshot is the JSON form of a Sink, served by /metricz.
type SinkSnapshot struct {
	Queries         int64                        `json:"queries"`
	QueryDuration   HistogramSnapshot            `json:"queryDuration"`
	Stages          map[string]HistogramSnapshot `json:"stages"`
	PostingsRead    int64                        `json:"postingsRead"`
	Subtrees        int64                        `json:"subtrees"`
	CandidatesSeen  int64                        `json:"candidatesSeen"`
	TypeCacheHits   int64                        `json:"typeCacheHits"`
	TypeCacheMisses int64                        `json:"typeCacheMisses"`
	Evictions       int64                        `json:"evictions"`
	WorkerImbalance HistogramSnapshot            `json:"workerImbalance"`
	SlowQueries     int64                        `json:"slowQueries"`
	Segments        int64                        `json:"segments"`
	TailDocs        int64                        `json:"tailDocs"`
	Tombstones      int64                        `json:"tombstones"`
	DocsAdded       int64                        `json:"docsAdded"`
	DocsRemoved     int64                        `json:"docsRemoved"`
	CompactionRuns  int64                        `json:"compactionRuns"`
	CompactionBytes int64                        `json:"compactionBytes"`
	CompactionDur   HistogramSnapshot            `json:"compactionDuration"`
}

// Snapshot copies the sink's current state.
func (s *Sink) Snapshot() SinkSnapshot {
	out := SinkSnapshot{
		Queries:         s.Queries.Value(),
		QueryDuration:   s.QueryDur.Snapshot(),
		Stages:          make(map[string]HistogramSnapshot, NumStages),
		PostingsRead:    s.PostingsRead.Value(),
		Subtrees:        s.Subtrees.Value(),
		CandidatesSeen:  s.CandidatesSeen.Value(),
		TypeCacheHits:   s.TypeCacheHits.Value(),
		TypeCacheMisses: s.TypeCacheMisses.Value(),
		Evictions:       s.Evictions.Value(),
		WorkerImbalance: s.WorkerImbalance.Snapshot(),
		SlowQueries:     s.SlowQueries.Value(),
		Segments:        s.SegmentCount.Value(),
		TailDocs:        s.TailDocs.Value(),
		Tombstones:      s.Tombstones.Value(),
		DocsAdded:       s.DocsAdded.Value(),
		DocsRemoved:     s.DocsRemoved.Value(),
		CompactionRuns:  s.CompactionRuns.Value(),
		CompactionBytes: s.CompactionBytes.Value(),
		CompactionDur:   s.CompactionDur.Snapshot(),
	}
	for i := range s.Stage {
		out.Stages[Stage(i).String()] = s.Stage[i].Snapshot()
	}
	return out
}

// ---- Prometheus text exposition (format 0.0.4) ----

// formatFloat renders a float the way Prometheus expects (shortest
// round-trip form; +Inf spelled literally).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCounter emits one counter metric with HELP/TYPE headers.
func WriteCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// WriteGauge emits one gauge metric with HELP/TYPE headers.
func WriteGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
}

// writeHistogramSeries emits the bucket/sum/count series of one
// histogram under the given name, with extraLabels (e.g. `stage="scan"`,
// may be empty) applied to every sample. Headers are the caller's job
// so vectors share one HELP/TYPE block.
func writeHistogramSeries(w io.Writer, name, extraLabels string, h *Histogram) {
	writeHistogramSeriesEx(w, name, extraLabels, h, false)
}

// writeHistogramSeriesEx is writeHistogramSeries with optional
// OpenMetrics exemplar suffixes: a bucket that has an exemplar gains
// ` # {trace_id="…",request_id="…"} <value> <timestamp>` after its
// sample, linking the bucket to one concrete request. Exemplars are an
// OpenMetrics extension — emit them only on endpoints scraped by
// OpenMetrics-capable collectors (Prometheus ≥ 2.26 negotiates it).
func writeHistogramSeriesEx(w io.Writer, name, extraLabels string, h *Histogram, withExemplars bool) {
	snap := h.Snapshot()
	sep, sumLabels := "", ""
	if extraLabels != "" {
		sep = ","
		sumLabels = "{" + extraLabels + "}"
	}
	for i, b := range snap.Buckets {
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d", name, extraLabels, sep, formatFloat(b.Le), b.Count)
		if withExemplars && i < len(h.exemplars) {
			if ex := h.exemplars[i].Load(); ex != nil {
				fmt.Fprintf(w, " # {trace_id=%q,request_id=%q} %s %.3f",
					ex.TraceID, ex.RequestID, formatFloat(ex.Value),
					float64(ex.UnixNano)/1e9)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sumLabels, formatFloat(snap.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sumLabels, snap.Count)
}

// WriteHistogramExemplars emits one histogram metric with HELP/TYPE
// headers and per-bucket OpenMetrics exemplars.
func WriteHistogramExemplars(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeriesEx(w, name, "", h, true)
}

// WriteHistogram emits one histogram metric with HELP/TYPE headers.
func WriteHistogram(w io.Writer, name, help string, h *Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeries(w, name, "", h)
}

// WritePrometheus emits every sink metric in Prometheus text
// exposition format under the given namespace (e.g. "xclean_engine").
func (s *Sink) WritePrometheus(w io.Writer, ns string) {
	WritePrometheusLabeled(w, ns, "", []NamedSink{{Sink: s}})
}

// NamedSink pairs a label value with a Sink, for the per-corpus
// exposition of WritePrometheusLabeled.
type NamedSink struct {
	Label string
	Sink  *Sink
}

// WriteHeader emits the HELP/TYPE preamble of one metric family; the
// caller follows with one or more samples (WriteLabeledCounterSample,
// WriteLabeledGaugeSample, WriteHistogramSeries) so a labeled family
// shares a single preamble.
func WriteHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteLabeledCounterSample emits one headerless counter sample with
// the given label set (e.g. `corpus="dblp"`; empty = no labels).
func WriteLabeledCounterSample(w io.Writer, name, labels string, v int64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %d\n", name, v)
		return
	}
	fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
}

// WriteLabeledGaugeSample is WriteLabeledCounterSample for float-valued
// gauges.
func WriteLabeledGaugeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatFloat(v))
}

// WriteHistogramSeries emits the headerless bucket/sum/count samples of
// one histogram, with extraLabels applied to every sample.
func WriteHistogramSeries(w io.Writer, name, extraLabels string, h *Histogram) {
	writeHistogramSeries(w, name, extraLabels, h)
}

// WritePrometheusLabeled emits every sink metric for a set of sinks
// under one namespace, with each sample labeled labelName="<Label>"
// (one HELP/TYPE block per metric family, one sample per sink — the
// exposition-format contract for labeled families). An empty labelName
// emits unlabeled samples, which is only sensible for a single sink.
func WritePrometheusLabeled(w io.Writer, ns, labelName string, sinks []NamedSink) {
	if ns == "" {
		ns = "xclean_engine"
	}
	label := func(s NamedSink) string {
		if labelName == "" {
			return ""
		}
		return fmt.Sprintf("%s=%q", labelName, s.Label)
	}
	counter := func(name, help string, v func(*Sink) int64) {
		WriteHeader(w, ns+name, help, "counter")
		for _, s := range sinks {
			WriteLabeledCounterSample(w, ns+name, label(s), v(s.Sink))
		}
	}
	gauge := func(name, help string, v func(*Sink) int64) {
		WriteHeader(w, ns+name, help, "gauge")
		for _, s := range sinks {
			WriteLabeledGaugeSample(w, ns+name, label(s), float64(v(s.Sink)))
		}
	}
	histogram := func(name, help string, h func(*Sink) *Histogram) {
		WriteHeader(w, ns+name, help, "histogram")
		for _, s := range sinks {
			writeHistogramSeries(w, ns+name, label(s), h(s.Sink))
		}
	}
	counter("_suggest_requests_total", "Suggestion calls observed by the engine.",
		func(s *Sink) int64 { return s.Queries.Value() })
	histogram("_suggest_duration_seconds", "End-to-end engine latency per suggestion call.",
		func(s *Sink) *Histogram { return s.QueryDur })
	name := ns + "_stage_duration_seconds"
	WriteHeader(w, name, "Per-stage time per suggestion call (parallel shards summed).", "histogram")
	for _, s := range sinks {
		for i := range s.Sink.Stage {
			stageLabel := fmt.Sprintf("stage=%q", Stage(i).String())
			if l := label(s); l != "" {
				stageLabel = l + "," + stageLabel
			}
			writeHistogramSeries(w, name, stageLabel, s.Sink.Stage[i])
		}
	}
	counter("_postings_read_total", "Merged-list entries consumed.",
		func(s *Sink) int64 { return s.PostingsRead.Value() })
	counter("_subtrees_scanned_total", "Anchor subtrees processed.",
		func(s *Sink) int64 { return s.Subtrees.Value() })
	counter("_candidates_seen_total", "Candidate-query observations scored.",
		func(s *Sink) int64 { return s.CandidatesSeen.Value() })
	counter("_type_cache_hits_total", "Result-type cache hits.",
		func(s *Sink) int64 { return s.TypeCacheHits.Value() })
	counter("_type_cache_misses_total", "Result-type cache misses (FindResultType runs).",
		func(s *Sink) int64 { return s.TypeCacheMisses.Value() })
	counter("_accumulator_evictions_total", "Score accumulators evicted under the γ bound.",
		func(s *Sink) int64 { return s.Evictions.Value() })
	histogram("_worker_imbalance_ratio", "Max over mean scan-shard time per parallel call.",
		func(s *Sink) *Histogram { return s.WorkerImbalance })
	counter("_slow_queries_total", "Requests that crossed the slow-query threshold.",
		func(s *Sink) int64 { return s.SlowQueries.Value() })
	gauge("_segments", "Sealed index segments in the stack (0 = monolithic).",
		func(s *Sink) int64 { return s.SegmentCount.Value() })
	gauge("_tail_docs", "Documents buffered in the mutable tail segment.",
		func(s *Sink) int64 { return s.TailDocs.Value() })
	gauge("_tombstones", "Logically removed documents awaiting compaction.",
		func(s *Sink) int64 { return s.Tombstones.Value() })
	counter("_docs_added_total", "Documents added through the live write path.",
		func(s *Sink) int64 { return s.DocsAdded.Value() })
	counter("_docs_removed_total", "Documents removed through the live write path.",
		func(s *Sink) int64 { return s.DocsRemoved.Value() })
	counter("_compactions_total", "Completed segment compaction operations.",
		func(s *Sink) int64 { return s.CompactionRuns.Value() })
	counter("_compaction_bytes_total", "Postings bytes of segments published by compaction.",
		func(s *Sink) int64 { return s.CompactionBytes.Value() })
	histogram("_compaction_duration_seconds", "Latency per compaction operation.",
		func(s *Sink) *Histogram { return s.CompactionDur })
}
