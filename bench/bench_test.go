package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{50, 30},  // ceil(2.5) = 3rd
		{20, 10},  // ceil(1.0) = 1st
		{21, 20},  // ceil(1.05) = 2nd
		{95, 50},  // ceil(4.75) = 5th
		{99, 50},  // ceil(4.95) = 5th
		{100, 50}, // last
		{1, 10},   // ceil(0.05) = 1st
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 200 values 1..200: p99 is the 198th, p95 the 190th.
	var big []float64
	for i := 200; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
	if got := percentile(big, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestPerQueryMedian(t *testing.T) {
	us := time.Microsecond
	lat := [][]time.Duration{ // three passes over two queries
		{10 * us, 900 * us},
		{30 * us, 100 * us},
		{20 * us, 110 * us},
	}
	got := perQueryMedian(lat)
	if want := []float64{20, 110}; !reflect.DeepEqual(got, want) {
		t.Errorf("perQueryMedian = %v, want %v: a query's one slow pass must not count", got, want)
	}
	if perQueryMedian(nil) != nil {
		t.Error("perQueryMedian of no passes should be nil")
	}
}

// TestQuartilesMatchPython pins the spread definition to
// statistics.quantiles(v, n=4), whose values for these inputs were
// computed by hand from its documented (exclusive) method.
func TestQuartilesMatchPython(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spreadShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("spreadShare(1..10) = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	q1, q3 = quartiles([]float64{7})
	if q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v; want 7, 7", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricSpec{name: "latency_p50_us", better: "lower", bound: 0.10}
	qps := metricSpec{name: "throughput_qps", better: "higher", bound: 0.10}
	a := []float64{100, 101, 99, 100, 100}
	if _, _, s := verdict(lat, a, []float64{105, 106, 104, 105, 105}); s != "ok" {
		t.Errorf("5%% slower within a 10%% bound: %s, want ok", s)
	}
	if _, _, s := verdict(lat, a, []float64{120, 121, 119, 120, 120}); s != "regressed" {
		t.Errorf("20%% slower: %s, want regressed", s)
	}
	if _, _, s := verdict(lat, a, []float64{60, 100, 140, 80, 120}); s != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", s)
	}
	if _, _, s := verdict(qps, a, []float64{80, 81, 79, 80, 80}); s != "regressed" {
		t.Errorf("20%% less throughput: %s, want regressed", s)
	}
	if _, _, s := verdict(qps, a, []float64{120, 121, 119, 120, 120}); s != "ok" {
		t.Errorf("more throughput: %s, want ok", s)
	}
}

func TestNoiseGuard(t *testing.T) {
	if bad, _ := noiseGuard(1000, 1040, 0.5, 2); bad {
		t.Error("4% drift on an idle machine flagged unstable")
	}
	if bad, _ := noiseGuard(1000, 1060, 0.5, 2); !bad {
		t.Error("6% drift not flagged")
	}
	if bad, _ := noiseGuard(1000, 940, 0.5, 2); !bad {
		t.Error("-6% drift not flagged")
	}
	if bad, _ := noiseGuard(1000, 1000, 2.5, 2); !bad {
		t.Error("load above nproc not flagged")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "mono_heap", "--seed", "7", "--seconds", "8", "--trace", "1"})
	want := []string{"--workload", "mono_heap", "--seed", "7", "--seconds", "8", "--trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-workload", "x"})
	if want := []string{"-trace", "-workload", "x"}; !reflect.DeepEqual(got, want) {
		t.Errorf("bare -trace: %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to what the program
// renders from its own tables, and every name inside the contract's
// alphabet and used once.
func TestBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, describe()) {
		t.Error("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || bytes.ContainsRune([]byte(w.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.name, len(w.why))
		}
	}
	for _, s := range concat(endToEnd, perLayer) {
		if !name.MatchString(s.name) || seen[s.name] {
			t.Errorf("metric name %q is malformed or repeated", s.name)
		}
		seen[s.name] = true
		if !unit.MatchString(s.unit) {
			t.Errorf("metric %s: unit %q is malformed", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %s: better is %q", s.name, s.better)
		}
	}
	if len(workloads) != 6 || len(endToEnd) != 13 {
		t.Errorf("%d workloads and %d end-to-end metrics, want 6 and 13", len(workloads), len(endToEnd))
	}
	hasSetup := false
	for _, s := range endToEnd {
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
		if s.name == "setup_s" {
			hasSetup = s.unit == "s" && s.better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) is missing")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 42, seconds: runSeconds, smoke: true, outDir: t.TempDir()}
}

// TestSmokeAllWorkloads runs all six workloads at the smoke sizing,
// correctness checks included, at GOMAXPROCS 1 and 2, and checks that
// each reports exactly the thirteen end-to-end metrics, none of them 0.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		start := time.Now()
		for i := range workloads {
			res, err := runEndToEnd(&workloads[i], smokeConfig(t))
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, workloads[i].name, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("GOMAXPROCS=%d %s: %d of %d ops failed: %v", procs, res.Workload, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%s reports %d metrics, want %d", res.Workload, len(res.Metrics), len(endToEnd))
			}
			for _, s := range endToEnd {
				m, ok := res.Metrics[s.name]
				if !ok || m.Value == 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v (present %t); every end-to-end metric must be a non-zero number", res.Workload, s.name, m.Value, ok)
				}
				if m.Unit != s.unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", res.Workload, s.name, m.Unit, s.unit)
				}
			}
		}
		runtime.GOMAXPROCS(old)
		if d := time.Since(start); d > 15*time.Second {
			t.Errorf("GOMAXPROCS=%d: smoke run took %v, want under 15s", procs, d)
		}
	}
}

// TestSameSeedSameInputs runs one traced and one untraced smoke run
// twice each: fingerprints and the exact metrics (the answers' MRR, the
// stored bytes, the core layer's work counts) must repeat bit for bit,
// and a traced run must report every per-layer metric.
func TestSameSeedSameInputs(t *testing.T) {
	def := workloadByName("mono_heap")
	var e2e, traced [2]*workloadResult
	for i := range e2e {
		var err error
		if e2e[i], err = runEndToEnd(def, smokeConfig(t)); err != nil {
			t.Fatal(err)
		}
		if traced[i], err = runTraced(def, smokeConfig(t)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(e2e[0].Fingerprints, e2e[1].Fingerprints) {
		t.Errorf("same seed, different fingerprints:\n%v\n%v", e2e[0].Fingerprints, e2e[1].Fingerprints)
	}
	if len(e2e[0].Fingerprints) < 4 {
		t.Errorf("fingerprints %v: want the three corpora and the op sequence", e2e[0].Fingerprints)
	}
	for _, name := range []string{"mrr", "correct_share", "stored_bytes_per_corpus_byte"} {
		if a, b := e2e[0].Metrics[name].Value, e2e[1].Metrics[name].Value; a != b {
			t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
		}
	}
	for _, name := range []string{"core.postings_read", "core.subtrees", "core.candidates_seen",
		"core.type_computations", "core.evictions", "fastss.matches_per_kw", "snapfile.bytes_per_corpus_byte"} {
		if a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value; a != b {
			t.Errorf("%s differs between two traced runs of one seed: %v vs %v", name, a, b)
		}
	}
	if len(traced[0].Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, want %d", len(traced[0].Metrics), len(perLayer))
	}
	for _, s := range perLayer {
		if _, ok := traced[0].Metrics[s.name]; !ok {
			t.Errorf("traced run does not report %s", s.name)
		}
	}
	if !traced[0].Correct {
		t.Errorf("traced run failed its correctness check: %v", traced[0].Failures)
	}

	other := smokeConfig(t)
	other.seed = 43
	res, err := runEndToEnd(def, other)
	if err != nil {
		t.Fatal(err)
	}
	// The corpora are the fixed datasets; the seed draws the queries.
	if res.Fingerprints["corpus.dblp"] != e2e[0].Fingerprints["corpus.dblp"] {
		t.Error("another seed gave another DBLP corpus; the corpora are generated from constants")
	}
	if res.Fingerprints["ops.mono_heap"] == e2e[0].Fingerprints["ops.mono_heap"] {
		t.Error("another seed gave the same op sequence")
	}
}

// TestTracedSmokeEveryWorkload checks that the traced run works from
// every workload's own request stream.
func TestTracedSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		res, err := runTraced(&workloads[i], smokeConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", workloads[i].name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d traced requests failed: %v", res.Workload, res.Failed, res.Attempted, res.Failures)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: traced run reports %d metrics, want %d", res.Workload, len(res.Metrics), len(perLayer))
		}
	}
}

func TestCompareRefusesOtherInputs(t *testing.T) {
	dir := t.TempDir()
	mk := func(path string, seed int64, fp string) {
		rec := runRecord{Seed: seed, Seconds: 8, Workloads: []*workloadResult{{
			Workload: "mono_heap", Correct: true, Attempted: 1,
			Metrics:      map[string]metric{"latency_p50_us": {Value: 100, Unit: "us"}},
			Fingerprints: map[string]string{"corpus.dblp": fp},
		}}}
		if err := appendRun(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := dir+"/a.json", dir+"/b.json", dir+"/c.json"
	mk(a, 42, "aaaa")
	mk(b, 42, "aaaa")
	mk(c, 42, "bbbb")
	if code := compareFiles(a, b); code != 0 {
		t.Errorf("same inputs, same values: exit %d, want 0", code)
	}
	if code := compareFiles(a, c); code != 3 {
		t.Errorf("different fingerprints: exit %d, want 3 (refused)", code)
	}
}
