package core

import (
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// paperTree builds a tree equivalent to Figure 2 of the paper (the
// running example of Examples 2–5): the query is "tree icdt" with
// variants tree→{tree,trees,trie} and icdt→{icdt,icde}.
//
//	a
//	├── c (1.1): x "trees"
//	├── c (1.2): x "trie", x "tree", x "icde"
//	├── d (1.3): x "icdt", x "trie", x "icde"
//	└── d (1.4): x "trie", x "icde"
//
// Expected behaviour (Example 5): candidate "trie icde" has best type
// /a/d and matches entities 1.3 and 1.4; "tree icde" has best type
// /a/c and matches entity 1.2; "trie icdt" has best type /a/d and
// matches entity 1.3.
func paperTree() *xmltree.Tree {
	t := xmltree.NewTree("a")
	c1 := t.AddChild(t.Root, "c", "")
	t.AddChild(c1, "x", "trees")
	c2 := t.AddChild(t.Root, "c", "")
	t.AddChild(c2, "x", "trie")
	t.AddChild(c2, "x", "tree")
	t.AddChild(c2, "x", "icde")
	d1 := t.AddChild(t.Root, "d", "")
	t.AddChild(d1, "x", "icdt")
	t.AddChild(d1, "x", "trie")
	t.AddChild(d1, "x", "icde")
	d2 := t.AddChild(t.Root, "d", "")
	t.AddChild(d2, "x", "trie")
	t.AddChild(d2, "x", "icde")
	return t
}

func paperEngine(cfg Config) *Engine {
	if cfg.Tokenizer == (tokenizer.Options{}) {
		cfg.Tokenizer = tokenizer.Options{MinLength: 1}
	}
	tr := paperTree()
	ix := invindex.Build(tr, cfg.Tokenizer)
	return NewEngine(ix, cfg)
}

func findSuggestion(sugs []Suggestion, query string) (Suggestion, bool) {
	for _, s := range sugs {
		if s.Query() == query {
			return s, true
		}
	}
	return Suggestion{}, false
}

func TestPaperExampleVariants(t *testing.T) {
	e := paperEngine(Config{})
	kws := e.Keywords("tree icdt")
	if len(kws) != 2 {
		t.Fatalf("keywords=%d", len(kws))
	}
	var treeVars, icdtVars []string
	for _, v := range kws[0].Variants {
		treeVars = append(treeVars, v.Word)
	}
	for _, v := range kws[1].Variants {
		icdtVars = append(icdtVars, v.Word)
	}
	// Example 2: var(tree) = {tree, trees, trie}, var(icdt) = {icdt, icde}.
	wantTree := map[string]bool{"tree": true, "trees": true, "trie": true}
	for _, w := range treeVars {
		if !wantTree[w] {
			t.Errorf("unexpected variant %q of tree", w)
		}
		delete(wantTree, w)
	}
	if len(wantTree) != 0 {
		t.Errorf("missing variants of tree: %v", wantTree)
	}
	wantIcdt := map[string]bool{"icdt": true, "icde": true}
	for _, w := range icdtVars {
		if !wantIcdt[w] {
			t.Errorf("unexpected variant %q of icdt", w)
		}
		delete(wantIcdt, w)
	}
	if len(wantIcdt) != 0 {
		t.Errorf("missing variants of icdt: %v", wantIcdt)
	}
	// Weights: the exact keyword must carry almost all the mass.
	if kws[0].Variants[0].Word != "tree" || kws[0].Variants[0].Weight < 0.9 {
		t.Errorf("tree variant weights wrong: %+v", kws[0].Variants)
	}
}

func TestPaperExampleSuggestions(t *testing.T) {
	e := paperEngine(Config{})
	sugs := e.Suggest("tree icdt")
	if len(sugs) != 3 {
		t.Fatalf("got %d suggestions: %v", len(sugs), sugs)
	}

	c1, ok1 := findSuggestion(sugs, "trie icde")
	c2, ok2 := findSuggestion(sugs, "tree icde")
	c3, ok3 := findSuggestion(sugs, "trie icdt")
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing expected candidates: %v", sugs)
	}

	paths := e.ix.PathTable()
	if got := paths.String(c1.ResultType); got != "/a/d" {
		t.Errorf("result type of 'trie icde' = %s want /a/d", got)
	}
	if got := paths.String(c2.ResultType); got != "/a/c" {
		t.Errorf("result type of 'tree icde' = %s want /a/c", got)
	}
	if got := paths.String(c3.ResultType); got != "/a/d" {
		t.Errorf("result type of 'trie icdt' = %s want /a/d", got)
	}
	if c1.Entities != 2 {
		t.Errorf("'trie icde' entities=%d want 2 (1.3 and 1.4)", c1.Entities)
	}
	if c2.Entities != 1 {
		t.Errorf("'tree icde' entities=%d want 1 (node 1.2)", c2.Entities)
	}
	if c3.Entities != 1 {
		t.Errorf("'trie icdt' entities=%d want 1 (node 1.3)", c3.Entities)
	}

	// The double-error candidate must rank below the single-error ones.
	if sugs[2].Query() != "trie icde" {
		t.Errorf("'trie icde' (2 edits) should rank last, got order %v, %v, %v",
			sugs[0].Query(), sugs[1].Query(), sugs[2].Query())
	}
	// Non-empty result guarantee.
	for _, s := range sugs {
		if s.Entities < 1 {
			t.Errorf("suggestion %q has no matching entity", s.Query())
		}
	}
}

func TestPaperExampleStats(t *testing.T) {
	e := paperEngine(Config{})
	_, st := e.SuggestDetailed("tree icdt")
	// Example 5 processes the subtrees of 1.2, 1.3, and 1.4; subtree
	// 1.1 is skipped entirely.
	if st.Subtrees != 3 {
		t.Errorf("subtrees=%d want 3", st.Subtrees)
	}
	// The 'trees' posting in subtree 1.1 must never be read.
	// Postings under 1.2..1.4: trie×3, tree×1, icde×3, icdt×1 = 8.
	if st.PostingsRead != 8 {
		t.Errorf("postingsRead=%d want 8", st.PostingsRead)
	}
	if st.TypeComputations > st.CandidatesSeen {
		t.Errorf("type computations %d exceed candidates %d",
			st.TypeComputations, st.CandidatesSeen)
	}
}

func TestPaperExampleCleanQuery(t *testing.T) {
	// A clean, answerable query must be suggested first.
	e := paperEngine(Config{})
	sugs := e.Suggest("trie icde")
	if len(sugs) == 0 || sugs[0].Query() != "trie icde" {
		t.Fatalf("clean query not top-ranked: %v", sugs)
	}
	if sugs[0].EditDistance != 0 {
		t.Errorf("clean query edit distance = %d", sugs[0].EditDistance)
	}
}
