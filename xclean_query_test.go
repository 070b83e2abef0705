package xclean

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The routing matrix of Engine.Query, the one place that picks between
// the SLCA/ELCA engine, the monolithic (or flat-stack) core engine, and
// the segmented store. Every serving form runs every request shape
// (Spaces × Explain), so an option that one route drops or mishandles
// shows up as a disagreement with the same form's plain answer.

type queryForm struct {
	name string
	e    *Engine
	// spacesIgnored marks forms without a space model (SLCA/ELCA), whose
	// Spaces answer must equal the plain one.
	spacesIgnored bool
}

func queryForms(t *testing.T) []queryForm {
	t.Helper()
	opts := Options{MaxErrors: 2, Accumulators: -1, Workers: 2, TailLimit: 100}
	open := func(o Options, docs []string) *Engine {
		e, err := Open(strings.NewReader(collectionXML(docs)), o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// withTail opens the first 12 documents and adds the rest through
	// the live write path; TailLimit keeps them buffered in the tail.
	withTail := func() *Engine {
		e := open(opts, segDocs[:12])
		for _, d := range segDocs[12:] {
			if err := e.AddDocument(strings.NewReader(d)); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(e.Close)
		return e
	}

	tail := withTail()
	if _, st := tail.route(); st == nil || tail.SegmentStats().TailDocs == 0 {
		t.Fatalf("tail form is not served by the segmented store: %+v", tail.SegmentStats())
	}
	flushed := withTail()
	if err := flushed.FlushSegments(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ce, st := flushed.route(); ce == nil || st != nil || flushed.seg.Load() == nil {
		t.Fatal("flushed form is not served by the stack's fast engine")
	}
	slcaOpts, elcaOpts := opts, opts
	slcaOpts.Semantics, elcaOpts.Semantics = SemanticsSLCA, SemanticsELCA
	return []queryForm{
		{name: "heap", e: open(opts, segDocs)},
		{name: "snapshot", e: snapReopen(t, open(opts, segDocs), opts)},
		{name: "tail", e: tail},
		{name: "flushed", e: flushed},
		{name: "slca", e: open(slcaOpts, segDocs), spacesIgnored: true},
		{name: "elca", e: open(elcaOpts, segDocs), spacesIgnored: true},
	}
}

func hasQuery(sugs []Suggestion, q string) bool {
	for _, s := range sugs {
		if s.Query == q {
			return true
		}
	}
	return false
}

func TestQueryRoutingMatrix(t *testing.T) {
	queries := append([]string{"data base indexing", "keyword sugestion"}, segQueries...)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, f := range queryForms(t) {
		answered := 0
		for _, q := range queries {
			var plain [2][]Suggestion
			for si, spaces := range []bool{false, true} {
				label := f.name + " " + q
				if spaces {
					label += " spaces"
				}
				res, err := f.e.Query(context.Background(), Request{Query: q, Spaces: spaces})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Explain != nil {
					t.Errorf("%s: trace returned without Explain", label)
				}
				plain[si] = res.Suggestions
				if len(res.Suggestions) > 0 {
					answered++
				}

				traced, err := f.e.Query(context.Background(), Request{Query: q, Spaces: spaces, Explain: true})
				if err != nil {
					t.Fatalf("%s explain: %v", label, err)
				}
				if !reflect.DeepEqual(traced.Suggestions, res.Suggestions) {
					t.Errorf("%s: Explain changed suggestions:\n got=%v\nwant=%v", label, traced.Suggestions, res.Suggestions)
				}
				ex := traced.Explain
				if ex == nil {
					t.Fatalf("%s: Explain requested, no trace", label)
				}
				if ex.Query != q || len(ex.Candidates) != len(res.Suggestions) {
					t.Fatalf("%s: trace for %q has %d candidates, %d suggestions",
						label, ex.Query, len(ex.Candidates), len(res.Suggestions))
				}
				for i, c := range ex.Candidates {
					s := res.Suggestions[i]
					if !reflect.DeepEqual(c.Words, s.Words) || c.Score != s.Score ||
						c.EditDistance != s.EditDistance || c.Entities != s.Entities || c.ResultType != s.ResultType {
						t.Errorf("%s: candidate %d = %+v, suggestion %+v", label, i, c, s)
					}
				}
			}
			if f.spacesIgnored && !reflect.DeepEqual(plain[1], plain[0]) {
				t.Errorf("%s %q: Spaces changed an answer it must ignore:\n got=%v\nwant=%v", f.name, q, plain[1], plain[0])
			}
			if !f.spacesIgnored && q == "data base indexing" && !hasQuery(plain[1], "database indexing") {
				t.Errorf("%s: Spaces did not merge %q: %v", f.name, q, plain[1])
			}
		}
		if answered == 0 {
			t.Fatalf("%s: no query answered; the matrix checks nothing", f.name)
		}

		for _, spaces := range []bool{false, true} {
			for _, explain := range []bool{false, true} {
				res, err := f.e.Query(cancelled, Request{Query: "databse indexing", Spaces: spaces, Explain: explain})
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s spaces=%v explain=%v: err=%v, want context.Canceled", f.name, spaces, explain, err)
				}
				if res.Suggestions != nil || res.Explain != nil {
					t.Errorf("%s spaces=%v explain=%v: cancelled call answered %v (trace %v)",
						f.name, spaces, explain, res.Suggestions, res.Explain)
				}
			}
		}
	}
}
