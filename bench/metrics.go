package main

import (
	"encoding/json"
	"strings"
)

// metricSpec is one metric's unit, direction and — for end-to-end
// metrics — the share of the parent's median by which it may get worse
// before a change counts as a regression.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	bound  float64
}

// endToEnd lists the thirteen metrics a caller of the system sees. Every
// workload reports every one of them with tracing off (README.md says
// what each means on each workload). The bounds come from two sets of
// ten runs over ten seeds on the host named in README.md: at least
// 2.3 times, mostly three times, the widest inter-quartile spread any
// workload showed in either set, capped at the contract's 0.25.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.20},
	{"latency_p95_us", "us", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.20},
	{"allocs_per_op", "count", "lower", 0.25},
	{"bytes_per_op", "B", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.03},
	{"correct_share", "share", "higher", 0.0001},
	{"mrr", "score", "higher", 0.015},
	{"time_to_first_answer_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_corpus_byte", "B/B", "lower", 0.005},
	{"ingest_docs_per_s", "1/s", "higher", 0.25},
	{"write_p75_us", "us", "lower", 0.25},
}

func lower(unit string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{name: n, unit: unit, better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricSpec {
	out := lower(unit, names...)
	for i := range out {
		out[i].better = "higher"
	}
	return out
}

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

var stageNames = []string{"tokenize", "variants", "scan", "enumerate", "typeinfer", "accumulate", "rank"}

func prefixed(prefix string, names []string, suffix string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n + suffix
	}
	return out
}

// perLayer lists the metrics of single layers, measured only in a
// traced run by timing calls into each layer's exported functions from
// outside. They carry no bound.
var perLayer = concat(
	lower("ns", "tokenizer.tokenize_ns", "fastss.search_ns", "editdist.withink_ns"),
	lower("count", "fastss.matches_per_kw"),
	lower("ms", "fastss.build_ms"),
	lower("us", "core.keywords_us"),
	lower("us", prefixed("core.suggest_p50_us.", setNames, "")...),
	lower("count", "core.postings_read", "core.subtrees", "core.candidates_seen", "core.type_computations", "core.evictions"),
	higher("ratio", "core.type_cache_hit_ratio"),
	lower("us", prefixed("core.stage.", stageNames, "_us")...),
	lower("us", "core.spaces_p50_us", "slca.suggest_p50_us", "slca.elca_suggest_p50_us", "core.merge_partials_us"),
	higher("ratio", "core.workers_speedup"),
	lower("ms", "invindex.build_ms"),
	lower("ns", "invindex.merged_open_ns", "invindex.merged_next_ns", "invindex.skipto_ns",
		"postings.decode_ns_per_posting", "postings.skipto_ns", "resulttype.best_ns"),
	higher("MB/s", "xmltree.parse_mb_per_s"),
	lower("count", "segment.sealed", "segment.tail_docs", "segment.tombstones", "segment.compactions"),
	lower("us", "segment.suggest_p50_us", "segment.add_p50_us", "segment.remove_p50_us", "segment.read_p99_under_write_us"),
	lower("ratio", "segment.depth_overhead_ratio"),
	lower("ms", "segment.seal_max_ms", "segment.compact_ms_total", "segment.flush_ms"),
	lower("ms", "snapfile.write_ms", "snapfile.nommap_open_ms", "snapfile.verify_ms", "snapfile.first_query_ms"),
	lower("us", "snapfile.open_us"),
	lower("ns", "snapfile.merged_next_ns"),
	lower("ratio", "snapfile.reader_overhead_ratio"),
	lower("B/B", "snapfile.bytes_per_corpus_byte"),
	lower("ns", "cache.get_hit_ns", "cache.put_ns", "catalog.resolve_ns"),
	higher("ratio", "cache.hit_ratio"),
	lower("us", "server.handler_hit_us", "server.handler_miss_us", "server.loopback_overhead_us"),
	lower("share", "server.shed_share"),
	lower("B", "server.resp_bytes"),
	lower("us", "cluster.suggest_p50_us", "cluster.leg_max_p50_us", "cluster.fanout_overhead_us", "cluster.batch16_us_per_query"),
	lower("share", "cluster.hedge_share", "cluster.partial_share"),
	lower("ms", "go.gc_pause_ms"),
	lower("count", "go.gc_cycles"),
	lower("share", "bench.trace_overhead_share"),
	lower("ns", "bench.calib_ns"),
)

// metricSpecs indexes both lists by name.
var metricSpecs = func() map[string]metricSpec {
	m := map[string]metricSpec{}
	for _, s := range concat(endToEnd, perLayer) {
		m[s.name] = s
	}
	return m
}()

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 8

// describe renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift apart (a test compares them).
func describe() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, s := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{s.name, s.unit, s.better, s.bound})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{s.name, s.unit, s.better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err)
	}
	return []byte(b.String())
}
