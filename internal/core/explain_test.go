package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/obs"
	"xclean/internal/tokenizer"
)

// explainEngine builds an engine over the bias tree, which is rich
// enough to exercise the full pipeline (variants, cache hits,
// multi-subtree scans).
func explainEngine(cfg Config) *Engine {
	ix := invindex.Build(biasTree(), tokenizer.Options{})
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 2
	}
	return NewEngine(ix, cfg)
}

func TestExplainSpansSumToTotal(t *testing.T) {
	e := explainEngine(Config{Workers: 1})
	out, ex := e.SuggestExplained("health insurence")
	if len(out) == 0 {
		t.Fatal("no suggestions")
	}
	if ex == nil {
		t.Fatal("nil explain")
	}
	if len(ex.Spans) == 0 {
		t.Fatal("no spans")
	}
	var sum int64
	for _, sp := range ex.Spans {
		if sp.DurationNs < 0 {
			t.Errorf("negative span %+v", sp)
		}
		sum += sp.DurationNs
	}
	// With one worker the stages partition the call: their sum must
	// account for most of the wall clock (dispatch overhead is the
	// remainder) and can never exceed it by more than clock jitter.
	if sum > ex.TookNs+int64(ex.TookNs/5) {
		t.Errorf("spans sum %dns exceeds total %dns", sum, ex.TookNs)
	}
	if sum < ex.TookNs/2 {
		t.Errorf("spans sum %dns accounts for under half of total %dns", sum, ex.TookNs)
	}
}

func TestExplainContents(t *testing.T) {
	// One worker: per-shard type caches at high core counts see too few
	// repeats to hit, and the hit assertion below is about the cache.
	e := explainEngine(Config{Workers: 1})
	out, ex := e.SuggestExplained("health insurence")
	if ex.Query != "health insurence" {
		t.Errorf("query %q", ex.Query)
	}
	if len(ex.Keywords) != 2 {
		t.Fatalf("keyword count %d", len(ex.Keywords))
	}
	for _, kw := range ex.Keywords {
		if kw.Variants < 1 {
			t.Errorf("keyword %q has %d variants", kw.Token, kw.Variants)
		}
	}
	if len(ex.Candidates) != len(out) {
		t.Fatalf("candidate table %d rows, %d suggestions", len(ex.Candidates), len(out))
	}
	for i, c := range ex.Candidates {
		if c.Score != out[i].Score || c.ResultType == "" {
			t.Errorf("candidate %d = %+v vs suggestion %+v", i, c, out[i])
		}
	}
	st := ex.Stats
	if st.CandidatesSeen == 0 || st.Subtrees == 0 {
		t.Errorf("work counters empty: %+v", st)
	}
	// Every candidate observation either hit or missed the type cache.
	if st.TypeCacheHits+st.TypeComputations != st.CandidatesSeen {
		t.Errorf("hits %d + misses %d != candidates %d",
			st.TypeCacheHits, st.TypeComputations, st.CandidatesSeen)
	}
	if st.TypeCacheHits == 0 {
		t.Error("no type-cache hits on a repetitive corpus")
	}
}

func TestExplainMatchesSuggest(t *testing.T) {
	e := explainEngine(Config{})
	plain := e.Suggest("health insurence")
	traced, _ := e.SuggestExplained("health insurence")
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("explain changed results:\n%v\n%v", plain, traced)
	}
}

func TestWorkerSubtreesAggregate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := explainEngine(Config{Workers: workers})
		_, st := e.SuggestDetailed("health insurence")
		if len(st.WorkerSubtrees) != workers {
			t.Fatalf("Workers=%d: %d shard entries", workers, len(st.WorkerSubtrees))
		}
		sum := 0
		for _, n := range st.WorkerSubtrees {
			sum += n
		}
		if sum != st.Subtrees {
			t.Errorf("Workers=%d: shard subtrees sum %d != total %d", workers, sum, st.Subtrees)
		}
	}
}

func TestSinkCountersMatchStats(t *testing.T) {
	e := explainEngine(Config{})
	sink := obs.NewSink()
	e.SetSink(sink)
	_, st := e.SuggestDetailed("health insurence")

	if got := sink.Queries.Value(); got != 1 {
		t.Errorf("queries = %d", got)
	}
	if got := sink.PostingsRead.Value(); got != int64(st.PostingsRead) {
		t.Errorf("postings %d != stats %d", got, st.PostingsRead)
	}
	if got := sink.Subtrees.Value(); got != int64(st.Subtrees) {
		t.Errorf("subtrees %d != stats %d", got, st.Subtrees)
	}
	if got := sink.CandidatesSeen.Value(); got != int64(st.CandidatesSeen) {
		t.Errorf("candidates %d != stats %d", got, st.CandidatesSeen)
	}
	if got := sink.TypeCacheHits.Value(); got != int64(st.TypeCacheHits) {
		t.Errorf("cache hits %d != stats %d", got, st.TypeCacheHits)
	}
	if got := sink.TypeCacheMisses.Value(); got != int64(st.TypeComputations) {
		t.Errorf("cache misses %d != stats %d", got, st.TypeComputations)
	}
	if got := sink.QueryDur.Count(); got != 1 {
		t.Errorf("latency observations = %d", got)
	}
	// The scan stage must have been timed for the one call.
	if got := sink.Stage[obs.StageScan].Count(); got != 1 {
		t.Errorf("scan stage observations = %d", got)
	}
}

func TestSinkResultsIdentical(t *testing.T) {
	plain := explainEngine(Config{})
	observed := explainEngine(Config{})
	observed.SetSink(obs.NewSink())
	for _, q := range []string{"health insurence", "helth insurance", "coverage detials"} {
		a := plain.Suggest(q)
		b := observed.Suggest(q)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %q: sink changed results:\n%v\n%v", q, a, b)
		}
	}
}

func TestSpaceSearchExplained(t *testing.T) {
	e := explainEngine(Config{Workers: 2})
	e.SetSink(obs.NewSink())
	res, err := e.Query(context.Background(), Request{Query: "health insurence", Spaces: true, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	out, ex := res.Suggestions, res.Explain
	if len(out) == 0 || ex == nil {
		t.Fatalf("out=%v ex=%v", out, ex)
	}
	want := e.SuggestWithSpaces("health insurence")
	if !reflect.DeepEqual(out, want) {
		t.Errorf("explained space search changed results")
	}
	if len(ex.Spans) == 0 || len(ex.Keywords) == 0 {
		t.Errorf("trace empty: %+v", ex)
	}
}

// TestConcurrentSuggestSharedSink is the engine-level race test: many
// goroutines suggesting through one sink (run under -race).
func TestConcurrentSuggestSharedSink(t *testing.T) {
	e := explainEngine(Config{Workers: 2})
	sink := obs.NewSink()
	e.SetSink(sink)
	queries := []string{"health insurence", "helth insurance", "coverage detials", "policy healt"}
	var wg sync.WaitGroup
	const per = 10
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				e.Suggest(queries[(i+j)%len(queries)])
			}
		}(i)
	}
	wg.Wait()
	if got := sink.Queries.Value(); got != 4*per {
		t.Errorf("queries = %d, want %d", got, 4*per)
	}
}
