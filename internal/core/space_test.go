package core

import (
	"context"
	"reflect"
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// spaceTree has documents mentioning "powerpoint" (one token) and
// "data base" (two tokens), exercising both space deletion and
// insertion.
func spaceTree() *xmltree.Tree {
	t := xmltree.NewTree("docs")
	d1 := t.AddChild(t.Root, "doc", "")
	t.AddChild(d1, "title", "powerpoint presentation tips")
	d2 := t.AddChild(t.Root, "doc", "")
	t.AddChild(d2, "title", "data base systems overview")
	d3 := t.AddChild(t.Root, "doc", "")
	t.AddChild(d3, "title", "powerpoint slides data")
	return t
}

func spaceEngine() *Engine {
	tr := spaceTree()
	ix := invindex.Build(tr, tokenizer.Options{})
	return NewEngine(ix, Config{})
}

func TestSpaceDeletion(t *testing.T) {
	e := spaceEngine()
	// "power point" only becomes matchable after merging the tokens.
	sugs := e.SuggestWithSpaces("power point presentation")
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	if sugs[0].Query() != "powerpoint presentation" {
		t.Errorf("top=%q want 'powerpoint presentation'", sugs[0].Query())
	}
	// Plain Suggest cannot fix this error class.
	if got := e.Suggest("power point presentation"); got != nil {
		t.Errorf("plain Suggest unexpectedly matched: %v", got)
	}
}

func TestSpaceInsertion(t *testing.T) {
	e := spaceEngine()
	sugs := e.SuggestWithSpaces("database systems")
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
	if sugs[0].Query() != "data base systems" {
		t.Errorf("top=%q want 'data base systems'", sugs[0].Query())
	}
}

func TestSpaceCleanQueryUnharmed(t *testing.T) {
	e := spaceEngine()
	sugs := e.SuggestWithSpaces("powerpoint slides")
	if len(sugs) == 0 || sugs[0].Query() != "powerpoint slides" {
		t.Fatalf("clean query displaced: %v", sugs)
	}
	if sugs[0].EditDistance != 0 {
		t.Errorf("clean query edit distance=%d", sugs[0].EditDistance)
	}
}

func TestSpacePenaltyOrdersShapes(t *testing.T) {
	e := spaceEngine()
	// "powerpoint data" is clean; the split shape "power point data"
	// (not in vocabulary) must not outrank it.
	sugs := e.SuggestWithSpaces("powerpoint data")
	if len(sugs) == 0 || sugs[0].Query() != "powerpoint data" {
		t.Fatalf("unexpected ranking: %v", sugs)
	}
}

func TestExpandShapesTauBound(t *testing.T) {
	e := spaceEngine()
	shapes := e.expandShapes([]string{"power", "point", "data", "base"}, 2)
	for _, sh := range shapes {
		if sh.changes > 2 {
			t.Errorf("shape %v exceeds tau", sh.tokens)
		}
	}
	// τ=0 yields only the original shape.
	shapes0 := e.expandShapes([]string{"power", "point"}, 0)
	if len(shapes0) != 1 || shapes0[0].changes != 0 {
		t.Errorf("tau=0 shapes: %v", shapes0)
	}
}

// A Spaces request must report the work of every explored shape, not
// just the last one (the Stats-clobbering regression: each shape's run
// used to overwrite the call's counters).
func TestSuggestWithSpacesAggregatesStats(t *testing.T) {
	// Corpus where both the joined and the split forms are indexed, so
	// at least two shapes do real scanning work.
	tr := xmltree.NewTree("docs")
	d1 := tr.AddChild(tr.Root, "doc", "")
	tr.AddChild(d1, "title", "notebook computing")
	d2 := tr.AddChild(tr.Root, "doc", "")
	tr.AddChild(d2, "title", "note book binding")
	ix := invindex.Build(tr, tokenizer.Options{})
	e := NewEngine(ix, Config{})

	query := "note book"
	raw := tokenizer.TokenizeRaw(query)
	var want Stats
	productive := 0
	shapes := e.expandShapes(raw, e.cfg.tau())
	// space.go's own rule: with several shapes and several workers the
	// fan-out is across shapes and each shape scans sequentially.
	inner := e.cfg.workers()
	if inner > 1 && len(shapes) > 1 {
		inner = 1
	}
	for _, sh := range shapes {
		kept := e.filterShape(sh.tokens)
		if len(kept) == 0 {
			continue
		}
		_, st, _ := e.suggestKeywordsN(context.Background(), e.keywordsFor(kept), inner, nil)
		if st.Subtrees > 0 {
			productive++
		}
		want.add(st)
	}
	if productive < 2 {
		t.Fatalf("fixture too weak: only %d productive shapes", productive)
	}

	res, _ := e.Query(context.Background(), Request{Query: query, Spaces: true})
	if got := res.Stats; !reflect.DeepEqual(got, want) {
		t.Errorf("stats not aggregated across shapes:\n got=%+v\nwant=%+v", got, want)
	}
}

func TestSpaceHopelessQuery(t *testing.T) {
	e := spaceEngine()
	if got := e.SuggestWithSpaces("zzz qqq"); got != nil {
		t.Errorf("hopeless query -> %v", got)
	}
	if got := e.SuggestWithSpaces(""); got != nil {
		t.Errorf("empty query -> %v", got)
	}
}
