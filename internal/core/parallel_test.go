package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
)

// sameSuggestions asserts two rankings are identical: same candidates
// in the same order with the same result types, entity counts, edit
// distances, and witnesses. Scores may differ by float summation order
// (per-worker partial sums add in a different order than the
// sequential scan), so they are compared within 1e-12 relative.
func sameSuggestions(t *testing.T, ctx string, got, want []Suggestion) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d suggestions\n got=%v\nwant=%v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Query() != w.Query() || g.ResultType != w.ResultType ||
			g.Entities != w.Entities || g.EditDistance != w.EditDistance ||
			g.Witness.String() != w.Witness.String() {
			t.Fatalf("%s rank %d:\n got=%+v\nwant=%+v", ctx, i, g, w)
		}
		if math.Abs(g.Score-w.Score) > 1e-12*math.Max(1, math.Abs(w.Score)) {
			t.Fatalf("%s rank %d: score %g vs %g", ctx, i, g.Score, w.Score)
		}
	}
}

// The sharded scan must return exactly the sequential results on the
// paper's running example, for every scoring configuration, and must
// do no more work than the sequential scan (sharding partitions the
// subtrees; a worker may even visit fewer — skipping other shards can
// exhaust a list before trailing incomplete groups are reached).
func TestParallelMatchesSequentialPaperExample(t *testing.T) {
	queries := []string{"tree icdt", "trie icde", "tree", "trees icde"}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"finite-gamma", Config{Gamma: 1000}},
		{"exact-scoring", Config{ScoreMode: ScoreModeExact}},
		{"unlimited-gamma", Config{Gamma: -1}},
	}
	for _, tc := range configs {
		seqCfg := tc.cfg
		seqCfg.Workers = 1
		seq := paperEngine(seqCfg)
		for _, n := range []int{2, 3, 4, 8} {
			parCfg := tc.cfg
			parCfg.Workers = n
			par := paperEngine(parCfg)
			for _, q := range queries {
				ctx := fmt.Sprintf("%s workers=%d query=%q", tc.name, n, q)
				want, wantSt := seq.SuggestDetailed(q)
				got, gotSt := par.SuggestDetailed(q)
				sameSuggestions(t, ctx, got, want)
				if gotSt.Subtrees > wantSt.Subtrees || gotSt.PostingsRead > wantSt.PostingsRead {
					t.Errorf("%s: parallel did extra work: subtrees %d vs %d, postings %d vs %d",
						ctx, gotSt.Subtrees, wantSt.Subtrees, gotSt.PostingsRead, wantSt.PostingsRead)
				}
				if gotSt.Subtrees == 0 && wantSt.Subtrees > 0 {
					t.Errorf("%s: parallel scan did nothing (sequential: %d subtrees)", ctx, wantSt.Subtrees)
				}
			}
		}
	}
}

// Randomized differential test: on random corpora, random worker
// counts must match the sequential path exactly, across scoring modes.
func TestParallelMatchesSequentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []string{"tree icde", "quer clean", "tred icdt", "tree query clean"}
	for trial := 0; trial < 60; trial++ {
		tr := randCorpus(rng)
		ix := invindex.Build(tr, tokenizer.Options{MinLength: 1})
		base := Config{
			Epsilon:   1 + rng.Intn(2),
			K:         100,
			Tokenizer: tokenizer.Options{MinLength: 1},
		}
		switch trial % 3 {
		case 1:
			base.ScoreMode = ScoreModeExact
		case 2:
			base.Gamma = -1
		}
		seqCfg := base
		seqCfg.Workers = 1
		parCfg := base
		parCfg.Workers = 2 + rng.Intn(7)
		seq := NewEngine(ix, seqCfg)
		par := NewEngine(ix, parCfg)
		for _, q := range queries {
			ctx := fmt.Sprintf("trial=%d workers=%d query=%q", trial, parCfg.Workers, q)
			want, wantSt := seq.SuggestDetailed(q)
			got, gotSt := par.SuggestDetailed(q)
			sameSuggestions(t, ctx, got, want)
			if gotSt.Subtrees > wantSt.Subtrees || gotSt.PostingsRead > wantSt.PostingsRead {
				t.Errorf("%s: parallel did extra work: subtrees %d vs %d, postings %d vs %d",
					ctx, gotSt.Subtrees, wantSt.Subtrees, gotSt.PostingsRead, wantSt.PostingsRead)
			}
		}
	}
}

// Under a γ tight enough to force evictions the victim choice is
// heuristic in both paths (per-worker bound, then merge re-prune), so
// exact equality is not guaranteed; the parallel path must still obey
// the bound and the non-empty-result guarantee.
func TestParallelTightGammaStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const gamma = 2
	for trial := 0; trial < 30; trial++ {
		tr := randCorpus(rng)
		ix := invindex.Build(tr, tokenizer.Options{MinLength: 1})
		base := Config{
			Epsilon:   2,
			Gamma:     gamma,
			K:         100,
			Tokenizer: tokenizer.Options{MinLength: 1},
		}
		seqCfg := base
		seqCfg.Workers = 1
		parCfg := base
		parCfg.Workers = 4
		seq := NewEngine(ix, seqCfg)
		par := NewEngine(ix, parCfg)
		for _, q := range []string{"tree query clean", "quer tred"} {
			want := seq.Suggest(q)
			got := par.Suggest(q)
			if (len(want) > 0) != (len(got) > 0) {
				t.Errorf("trial %d query %q: sequential returned %d, parallel %d",
					trial, q, len(want), len(got))
			}
			if len(got) > gamma {
				t.Errorf("trial %d query %q: %d suggestions exceed γ=%d", trial, q, len(got), gamma)
			}
			for _, s := range got {
				if s.Entities < 1 {
					t.Errorf("trial %d query %q: suggestion %q has no entity", trial, q, s.Query())
				}
			}
		}
	}
}

// SuggestWithSpaces runs shapes concurrently; results must match the
// sequential shape loop.
func TestParallelSpacesMatchesSequential(t *testing.T) {
	tr := spaceTree()
	ix := invindex.Build(tr, tokenizer.Options{})
	seq := NewEngine(ix, Config{Workers: 1})
	par := NewEngine(ix, Config{Workers: 4})
	for _, q := range []string{"power point presentation", "database systems", "powerpoint slides"} {
		want := seq.SuggestWithSpaces(q)
		got := par.SuggestWithSpaces(q)
		sameSuggestions(t, fmt.Sprintf("spaces query=%q", q), got, want)
	}
}
