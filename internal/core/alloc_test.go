package core

import (
	"strings"
	"testing"

	"xclean/internal/dataset"
	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
)

// TestSuggestAllocsGuard pins the allocation-free candidate path:
// rejection before allocation, interned candidate keys, arena root
// keys and slab accumulators. The same queries run at Workers 1 over
// two DBLP corpora, the larger twice the size of the smaller, so the
// scan observes about twice as many candidates while the set of
// distinct candidates (which do cost a key and an accumulator each)
// barely changes. Allocations per warm pass may grow by at most a
// quarter of an allocation per extra candidate observation; a
// per-candidate or per-subtree allocation creeping back in costs
// several per observation. The bound is relative, so it holds on any
// toolchain whatever its map and runtime allocate per query.
func TestSuggestAllocsGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop Puts; pooled scratch can't reach steady state")
	}
	// Every clean query also runs with a letter dropped from each longer
	// word, which is what widens the variant lists.
	var queries []string
	src := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 7, Articles: 1500})
	for _, q := range src.SampleQueries(3, 40) {
		words := strings.Fields(q)
		for i, w := range words {
			if len(w) > 4 {
				words[i] = w[:2] + w[3:]
			}
		}
		queries = append(queries, q, strings.Join(words, " "))
	}
	measure := func(articles int) (allocs float64, seen int) {
		gen := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 7, Articles: articles})
		e := NewEngine(invindex.Build(gen.Tree, tokenizer.Options{}), Config{Workers: 1})
		for _, q := range queries { // also warms the pools
			_, st := e.SuggestDetailed(q)
			seen += st.CandidatesSeen
		}
		allocs = testing.AllocsPerRun(3, func() {
			for _, q := range queries {
				e.Suggest(q)
			}
		})
		t.Logf("%d articles: %.0f allocs, %d candidates seen per pass of %d queries", articles, allocs, seen, len(queries))
		return allocs, seen
	}
	smallAllocs, smallSeen := measure(2400)
	bigAllocs, bigSeen := measure(4800)
	if 2*bigSeen < 3*smallSeen {
		t.Fatalf("candidates seen grew only %d → %d; the corpora no longer separate the work", smallSeen, bigSeen)
	}
	perSeen := (bigAllocs - smallAllocs) / float64(bigSeen-smallSeen)
	t.Logf("%.3f extra allocs per extra candidate seen", perSeen)
	if perSeen > 0.25 {
		t.Errorf("allocations grow by %.2f per extra candidate seen (%.0f → %.0f for %d → %d), want ≤ 0.25",
			perSeen, smallAllocs, bigAllocs, smallSeen, bigSeen)
	}
}
