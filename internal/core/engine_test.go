package core

import (
	"fmt"
	"reflect"
	"testing"

	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// biasTree reproduces Figure 1 of the paper: "insurance" co-occurs
// with "health" inside records, while the rarer "instance" appears
// only in an unrelated branch, connected to "health" through the root
// alone.
func biasTree() *xmltree.Tree {
	t := xmltree.NewTree("db")
	for i := 0; i < 5; i++ {
		rec := t.AddChild(t.Root, "record", "")
		t.AddChild(rec, "title", "health insurance policy")
		t.AddChild(rec, "body", "national health insurance coverage details")
	}
	other := t.AddChild(t.Root, "note", "")
	t.AddChild(other, "text", "single instance running")
	return t
}

func TestFigure1BiasResolved(t *testing.T) {
	tr := biasTree()
	ix := invindex.Build(tr, tokenizer.Options{})
	e := NewEngine(ix, Config{Epsilon: 2})

	sugs := e.Suggest("health insurence")
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	if sugs[0].Query() != "health insurance" {
		t.Errorf("top suggestion %q, want 'health insurance'", sugs[0].Query())
	}
	// "health instance" must not be suggested at all: the two tokens
	// only connect at the root, below the minimal depth threshold.
	if _, ok := findSuggestion(sugs, "health instance"); ok {
		t.Error("'health instance' suggested despite being connected only at the root")
	}
}

func TestNonEmptyResultGuarantee(t *testing.T) {
	tr := biasTree()
	ix := invindex.Build(tr, tokenizer.Options{})
	e := NewEngine(ix, Config{Epsilon: 2})
	for _, q := range []string{"health insurence", "helth insurance", "coverage detials", "policy healt"} {
		for _, s := range e.Suggest(q) {
			if s.Entities < 1 {
				t.Errorf("query %q: suggestion %q has no result", q, s.Query())
			}
		}
	}
}

func TestSuggestDeterministic(t *testing.T) {
	e := paperEngine(Config{})
	a := e.Suggest("tree icdt")
	b := e.Suggest("tree icdt")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic results:\n%v\n%v", a, b)
	}
}

// TestSuggestScratchIsolation pins the pooled-scratch contract: a
// query's results must not change because other queries (of different
// keyword counts and variant sets) ran in between and left their
// buffers in the pool, sequentially or across parallel shards.
func TestSuggestScratchIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := paperEngine(Config{Workers: workers})
		want := e.Suggest("tree icdt")
		for _, q := range []string{
			"databse theory", "xml keyword query processing", "icdt", "a b c d e",
		} {
			e.Suggest(q)
		}
		if got := e.Suggest("tree icdt"); !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: results changed after interleaved queries:\n%v\n%v",
				workers, want, got)
		}
	}
}

func TestSuggestEmptyAndHopeless(t *testing.T) {
	e := paperEngine(Config{})
	if got := e.Suggest(""); got != nil {
		t.Errorf("empty query -> %v", got)
	}
	if got := e.Suggest("zzzzzzz qqqqqq"); got != nil {
		t.Errorf("un-matchable query -> %v", got)
	}
	// One matchable plus one hopeless keyword: no valid candidates.
	if got := e.Suggest("tree zzzzzzz"); got != nil {
		t.Errorf("half-matchable query -> %v", got)
	}
}

func TestSuggestSingleKeyword(t *testing.T) {
	e := paperEngine(Config{})
	sugs := e.Suggest("icdt")
	if len(sugs) == 0 {
		t.Fatal("no suggestions for single keyword")
	}
	if sugs[0].Query() != "icdt" {
		t.Errorf("top=%q want icdt (exact match)", sugs[0].Query())
	}
	if _, ok := findSuggestion(sugs, "icde"); !ok {
		t.Error("icde variant missing")
	}
}

func TestKConfig(t *testing.T) {
	e := paperEngine(Config{K: 1})
	if got := e.Suggest("tree icdt"); len(got) != 1 {
		t.Errorf("K=1 returned %d suggestions", len(got))
	}
}

func TestGammaPruning(t *testing.T) {
	e := paperEngine(Config{Gamma: 1})
	sugs, st := e.SuggestDetailed("tree icdt")
	// With a single accumulator at most one candidate survives.
	if len(sugs) > 1 {
		t.Errorf("gamma=1 kept %d candidates", len(sugs))
	}
	if st.Evictions == 0 {
		t.Error("expected evictions with gamma=1")
	}

	// Unlimited gamma keeps all three.
	e2 := paperEngine(Config{Gamma: -1})
	if got := e2.Suggest("tree icdt"); len(got) != 3 {
		t.Errorf("unlimited gamma kept %d", len(got))
	}
}

func TestGammaQualityMonotone(t *testing.T) {
	// With enough accumulators the result equals the unlimited run.
	big := paperEngine(Config{Gamma: 1000}).Suggest("tree icdt")
	unlimited := paperEngine(Config{Gamma: -1}).Suggest("tree icdt")
	if !reflect.DeepEqual(big, unlimited) {
		t.Error("gamma=1000 differs from unlimited on a tiny corpus")
	}
}

func TestLinearSkipEquivalence(t *testing.T) {
	fast := paperEngine(Config{})
	slow := paperEngine(Config{LinearSkip: true})
	a := fast.Suggest("tree icdt")
	b := slow.Suggest("tree icdt")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("linear vs galloping skip mismatch:\n%v\n%v", a, b)
	}
}

func TestExactScoreMode(t *testing.T) {
	matched := paperEngine(Config{})
	exact := paperEngine(Config{ScoreMode: ScoreModeExact})
	a := matched.Suggest("tree icdt")
	b := exact.Suggest("tree icdt")
	if len(a) != len(b) {
		t.Fatalf("candidate sets differ: %d vs %d", len(a), len(b))
	}
	// Exact mode adds non-negative background mass, so each candidate's
	// score must be at least its matched-only score.
	for _, sa := range a {
		sb, ok := findSuggestion(b, sa.Query())
		if !ok {
			t.Fatalf("%q missing in exact mode", sa.Query())
		}
		if sb.Score < sa.Score {
			t.Errorf("%q: exact score %g < matched score %g", sa.Query(), sb.Score, sa.Score)
		}
	}
}

func TestEvictionPolicies(t *testing.T) {
	for _, pol := range []EvictionPolicy{EvictLowestEstimate, EvictFIFO} {
		e := paperEngine(Config{Gamma: 2, Eviction: pol})
		sugs := e.Suggest("tree icdt")
		if len(sugs) == 0 || len(sugs) > 2 {
			t.Errorf("policy %v: %d suggestions", pol, len(sugs))
		}
	}
}

func TestMinDepthRootBan(t *testing.T) {
	// Tokens that co-occur only at the root must yield no suggestion
	// with the default d=2, but do yield one with MinDepth=1.
	tr := xmltree.NewTree("a")
	b := tr.AddChild(tr.Root, "b", "")
	tr.AddChild(b, "x", "alpha")
	c := tr.AddChild(tr.Root, "c", "")
	tr.AddChild(c, "x", "beta")
	ix := invindex.Build(tr, tokenizer.Options{})

	e := NewEngine(ix, Config{})
	if got := e.Suggest("alpha beta"); got != nil {
		t.Errorf("root-only connection suggested: %v", got)
	}
	e1 := NewEngine(ix, Config{MinDepth: 1})
	if got := e1.Suggest("alpha beta"); len(got) == 0 {
		t.Error("MinDepth=1 should allow the root entity")
	}
}

func TestSharedFastSSEngines(t *testing.T) {
	tr := paperTree()
	ix := invindex.Build(tr, tokenizer.Options{MinLength: 1})
	fss := fastss.Build(ix.VocabList(), fastss.Config{MaxErrors: 1})
	e1 := NewEngineWithFastSS(ix, fss, Config{Tokenizer: tokenizer.Options{MinLength: 1}})
	e2 := NewEngineWithFastSS(ix, fss, Config{Beta: 2, Tokenizer: tokenizer.Options{MinLength: 1}})
	a := e1.Suggest("tree icdt")
	b := e2.Suggest("tree icdt")
	if len(a) != 3 || len(b) != 3 {
		t.Errorf("shared-index engines broken: %d, %d", len(a), len(b))
	}
}

func TestErrorModelWeights(t *testing.T) {
	m := ErrorModel{Beta: 5}
	kw := m.Keyword("tree", []fastss.Match{
		{Word: "tree", Dist: 0}, {Word: "trees", Dist: 1}, {Word: "trie", Dist: 1},
	})
	var sum float64
	for _, v := range kw.Variants {
		sum += v.Weight
	}
	if sum < 0.999999 || sum > 1.000001 {
		t.Errorf("weights must normalize, sum=%g", sum)
	}
	if kw.Variants[0].Weight <= kw.Variants[1].Weight {
		t.Error("closer variant must weigh more")
	}
	if kw.Variants[1].Weight != kw.Variants[2].Weight {
		t.Error("equal distances must weigh equally")
	}

	// β=0 (passed as negative) gives the uniform distribution.
	m0 := ErrorModel{Beta: -1}
	kw0 := m0.Keyword("tree", []fastss.Match{
		{Word: "tree", Dist: 0}, {Word: "trees", Dist: 1},
	})
	if kw0.Variants[0].Weight != kw0.Variants[1].Weight {
		t.Errorf("beta=0 should be uniform: %+v", kw0.Variants)
	}

	// Empty variant set must not divide by zero.
	if kw := m.Keyword("zz", nil); len(kw.Variants) != 0 {
		t.Error("empty variants mishandled")
	}
}

func TestAccumulators(t *testing.T) {
	acc := newAccumulators(2, EvictLowestEstimate)
	p := xmltree.PathID(1)
	a1 := acc.add("a", []string{"a"}, []int{0}, p, 1.0, 0.5, 0, 1, []byte("w"))
	if a1 == nil || acc.len() != 1 {
		t.Fatal("first insert failed")
	}
	// Merge into the same candidate.
	a1b := acc.add("a", []string{"a"}, []int{0}, p, 1.0, 0.25, 0, 2, []byte("w"))
	if a1b != a1 || a1.sum != 0.75 || a1.entities != 3 {
		t.Errorf("merge failed: %+v", a1)
	}
	acc.add("b", []string{"b"}, []int{0}, p, 1.0, 0.3, 0, 1, []byte("w"))

	// Table full: a weak newcomer must be rejected.
	if got := acc.add("c", []string{"c"}, []int{0}, p, 1.0, 0.01, 0, 1, []byte("w")); got != nil {
		t.Error("weak newcomer should be rejected")
	}
	if acc.evictions != 1 {
		t.Errorf("evictions=%d", acc.evictions)
	}
	// A strong newcomer evicts the weakest ("b", estimate 0.3).
	if got := acc.add("d", []string{"d"}, []int{0}, p, 1.0, 5.0, 0, 1, []byte("w")); got == nil {
		t.Error("strong newcomer rejected")
	}
	if _, ok := acc.m["b"]; ok {
		t.Error("weakest entry not evicted")
	}
	if _, ok := acc.m["a"]; !ok {
		t.Error("strong entry wrongly evicted")
	}
}

func TestAccumulatorsFIFO(t *testing.T) {
	acc := newAccumulators(2, EvictFIFO)
	p := xmltree.PathID(1)
	acc.add("a", []string{"a"}, []int{0}, p, 1.0, 9.0, 0, 1, []byte("w"))
	acc.add("b", []string{"b"}, []int{0}, p, 1.0, 1.0, 0, 1, []byte("w"))
	acc.add("c", []string{"c"}, []int{0}, p, 1.0, 0.1, 0, 1, []byte("w"))
	if _, ok := acc.m["a"]; ok {
		t.Error("FIFO should evict the oldest regardless of score")
	}
	if _, ok := acc.m["c"]; !ok {
		t.Error("FIFO should admit the newcomer")
	}
}

func TestAccumulatorsUnlimited(t *testing.T) {
	acc := newAccumulators(0, EvictLowestEstimate)
	p := xmltree.PathID(1)
	for i := 0; i < 100; i++ {
		acc.add(fmt.Sprintf("k%d", i), []string{"w"}, []int{0}, p, 1, 1, 0, 1, []byte("w"))
	}
	if acc.len() != 100 || acc.evictions != 0 {
		t.Errorf("unlimited table evicted: len=%d ev=%d", acc.len(), acc.evictions)
	}
}
