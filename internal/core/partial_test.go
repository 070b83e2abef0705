package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"xclean/internal/dataset"
	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
)

// Differential parity: a corpus split into entity-range shards and
// answered through SuggestPartialsContext + MergePartials must reproduce the
// standalone engine's ranking exactly — same candidates, types, entity
// counts, distances, and witnesses, with scores within 1e-12 relative
// (partial sums associate differently across shard boundaries). γ must
// be non-binding: a shard-local accumulator bound can evict a
// candidate a global scan would keep.

// partialsOf is one untraced shard scan under a live context.
func partialsOf(t *testing.T, e *Engine, q string) PartialSet {
	t.Helper()
	ps, _, _, err := e.SuggestPartialsContext(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// sameMerged compares a merged cluster ranking against a standalone
// ranking. The standalone side carries table IDs and Dewey values; the
// merged side carries their wire forms (label paths, dot-form codes).
func sameMerged(t *testing.T, ctx string, ix *invindex.Index, got []MergedSuggestion, want []Suggestion) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d suggestions\n got=%v\nwant=%v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Query() != w.Query() || g.ResultType != ix.Paths.String(w.ResultType) ||
			g.Entities != w.Entities || g.EditDistance != w.EditDistance ||
			g.Witness != w.Witness.String() {
			t.Fatalf("%s rank %d:\n got=%+v\nwant=%+v", ctx, i, g, w)
		}
		if math.Abs(g.Score-w.Score) > 1e-12*math.Max(math.Abs(w.Score), 1e-300) {
			t.Fatalf("%s rank %d: score %g vs %g", ctx, i, g.Score, w.Score)
		}
	}
}

// shardEngines builds one engine per entity-range shard of ix.
func shardEngines(t *testing.T, ix *invindex.Index, n int, cfg Config) []*Engine {
	t.Helper()
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		sl, err := ix.ShardEntities(i, n)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		engines[i] = NewEngine(sl, cfg)
	}
	return engines
}

func TestMergePartialsMatchesStandalone(t *testing.T) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 17, Articles: 800})
	ix := invindex.Build(c.Tree, tokenizer.Options{})

	queries := append(c.SampleQueries(18, 15),
		"databse systems", "algoritm", "quer optimization",
		"xml keywod search", "zzzzqq", "")

	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Epsilon: 2, Gamma: -1}},
		{"bigram", Config{Epsilon: 2, Gamma: -1, Bigram: true}},
		{"beta2-k5", Config{Epsilon: 1, Beta: 2, Gamma: -1, K: 5}},
	}
	for _, tc := range configs {
		full := NewEngine(ix, tc.cfg)
		for _, n := range []int{1, 2, 4} {
			shards := shardEngines(t, ix, n, tc.cfg)
			mc := MergeConfig{Beta: tc.cfg.Beta, K: tc.cfg.K}
			for _, q := range queries {
				ctx := fmt.Sprintf("%s shards=%d query=%q", tc.name, n, q)
				want := full.Suggest(q)
				sets := make([]PartialSet, n)
				for i, sh := range shards {
					sets[i] = partialsOf(t, sh, q)
				}
				got, err := MergePartials(mc, sets)
				if err != nil {
					t.Fatalf("%s: merge: %v", ctx, err)
				}
				sameMerged(t, ctx, ix, got, want)
			}
		}
	}
}

// A single shard holds the whole corpus, so the merge adds nothing:
// the scores must be bitwise identical, not merely within tolerance.
func TestMergePartialsSingleShardBitwise(t *testing.T) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 19, Articles: 400})
	ix := invindex.Build(c.Tree, tokenizer.Options{})
	cfg := Config{Epsilon: 2, Gamma: -1}
	full := NewEngine(ix, cfg)
	solo := shardEngines(t, ix, 1, cfg)[0]

	for _, q := range append(c.SampleQueries(20, 8), "databse") {
		want := full.Suggest(q)
		ps := partialsOf(t, solo, q)
		got, err := MergePartials(MergeConfig{}, []PartialSet{ps})
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %q: %d vs %d suggestions", q, len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("query %q rank %d: score %v != %v (must be bitwise equal)",
					q, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// Omitting a shard's set (the degraded path) must still merge into a
// well-formed ranking: every surviving candidate scored from the
// remaining shards' sums and norms, never an error.
func TestMergePartialsDroppedShard(t *testing.T) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 23, Articles: 400})
	ix := invindex.Build(c.Tree, tokenizer.Options{})
	cfg := Config{Epsilon: 2, Gamma: -1}
	shards := shardEngines(t, ix, 2, cfg)

	q := c.SampleQueries(24, 1)[0]
	ps0 := partialsOf(t, shards[0], q)
	ps1 := partialsOf(t, shards[1], q)

	both, err := MergePartials(MergeConfig{}, []PartialSet{ps0, ps1})
	if err != nil {
		t.Fatal(err)
	}
	only0, err := MergePartials(MergeConfig{}, []PartialSet{ps0})
	if err != nil {
		t.Fatal(err)
	}
	if len(both) == 0 {
		t.Fatalf("query %q found nothing with both shards", q)
	}
	// The surviving shard's answer normalizes by its local N only —
	// scores differ from the full answer, but the structure holds.
	for _, s := range only0 {
		if len(s.Words) == 0 || s.ResultType == "" || s.Entities <= 0 {
			t.Fatalf("degraded merge produced malformed suggestion %+v", s)
		}
		if math.IsNaN(s.Score) || math.IsInf(s.Score, 0) || s.Score <= 0 {
			t.Fatalf("degraded merge produced non-finite score %+v", s)
		}
	}
}

func TestMergePartialsArityMismatch(t *testing.T) {
	one := PartialSet{Keywords: [][]PartialVariant{{{Word: "a", Dist: 0}}}}
	two := PartialSet{Keywords: [][]PartialVariant{
		{{Word: "a", Dist: 0}}, {{Word: "b", Dist: 0}},
	}}
	if _, err := MergePartials(MergeConfig{}, []PartialSet{one, two}); err == nil {
		t.Fatal("keyword arity mismatch accepted")
	}
	// Empty sets carry no arity and are skipped, not errors.
	out, err := MergePartials(MergeConfig{}, []PartialSet{{}, {}})
	if err != nil || out != nil {
		t.Fatalf("empty sets: out=%v err=%v", out, err)
	}
}
