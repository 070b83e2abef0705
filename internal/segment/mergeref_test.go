package segment

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"xclean/internal/core"
	"xclean/internal/dataset"
	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// The string-keyed merge is the reference for core.MergePartials: it
// folds candidates by their joined words, looks types up by label path
// and compares witnesses in dot form, as the merge did before partial
// sets became index-keyed. It lives here, in the lowest package whose
// tests reach both kinds of partial sets the merge folds: entity-range
// shards (the cluster's) and the segments of a live stack.

// refCandidate is a candidate in the string-keyed form.
type refCandidate struct {
	words      []string
	resultType string
	sum        float64
	entities   int
	witness    string // dot form
	coherence  float64
}

// refSet is a partial set in the string-keyed form.
type refSet struct {
	keywords   [][]core.PartialVariant
	typeNorms  map[string]float64
	candidates []refCandidate
}

func refForm(ps core.PartialSet) refSet {
	rs := refSet{keywords: ps.Keywords, typeNorms: make(map[string]float64)}
	for _, tn := range ps.TypeNorms {
		rs.typeNorms[ps.Paths[tn.Path]] = tn.Norm
	}
	for _, c := range ps.Candidates {
		rc := refCandidate{
			resultType: ps.Paths[c.ResultType],
			sum:        c.Sum,
			entities:   c.Entities,
			coherence:  c.Coherence,
		}
		for i, j := range c.Choice {
			rc.words = append(rc.words, ps.Keywords[i][j].Word)
		}
		if c.Witness != "" {
			rc.witness = xmltree.DeweyFromKey(c.Witness).String()
		}
		rs.candidates = append(rs.candidates, rc)
	}
	return rs
}

// refWitnessKey converts a dot-form Dewey code to its fixed-width key
// ("" for empty or malformed).
func refWitnessKey(code string) string {
	if code == "" {
		return ""
	}
	d, err := xmltree.ParseDewey(code)
	if err != nil {
		return ""
	}
	return d.Key()
}

func refMergePartials(cfg core.MergeConfig, in []core.PartialSet) ([]core.MergedSuggestion, error) {
	sets := make([]refSet, len(in))
	for i, ps := range in {
		sets[i] = refForm(ps)
	}
	nkw := -1
	for _, s := range sets {
		if len(s.keywords) == 0 && len(s.candidates) == 0 {
			continue
		}
		if nkw == -1 {
			nkw = len(s.keywords)
		} else if len(s.keywords) != nkw {
			return nil, fmt.Errorf("keyword arity mismatch (%d vs %d)", nkw, len(s.keywords))
		}
	}
	if nkw <= 0 {
		return nil, nil
	}
	type vw struct {
		weight float64
		dist   int
	}
	em := core.ErrorModel{Beta: cfg.Beta}
	weights := make([]map[string]vw, nkw)
	for i := 0; i < nkw; i++ {
		best := make(map[string]int)
		for _, s := range sets {
			if len(s.keywords) != nkw {
				continue
			}
			for _, v := range s.keywords[i] {
				if d, ok := best[v.Word]; !ok || v.Dist < d {
					best[v.Word] = v.Dist
				}
			}
		}
		matches := make([]fastss.Match, 0, len(best))
		for w, d := range best {
			matches = append(matches, fastss.Match{Word: w, Dist: d})
		}
		sort.Slice(matches, func(a, b int) bool {
			if matches[a].Dist != matches[b].Dist {
				return matches[a].Dist < matches[b].Dist
			}
			return matches[a].Word < matches[b].Word
		})
		kw := em.Keyword("", matches)
		weights[i] = make(map[string]vw, len(kw.Variants))
		for _, v := range kw.Variants {
			weights[i][v.Word] = vw{weight: v.Weight, dist: v.Dist}
		}
	}
	norms := make(map[string]float64)
	for _, s := range sets {
		for label, n := range s.typeNorms {
			norms[label] += n
		}
	}
	type merged struct {
		c       refCandidate
		witness string
	}
	byKey := make(map[string]*merged)
	var order []string
	for _, s := range sets {
		if len(s.keywords) != nkw {
			continue
		}
		for _, c := range s.candidates {
			if len(c.words) != nkw {
				continue
			}
			key := strings.Join(c.words, "\x00")
			m, ok := byKey[key]
			if !ok {
				byKey[key] = &merged{c: c, witness: refWitnessKey(c.witness)}
				order = append(order, key)
				continue
			}
			m.c.sum += c.sum
			m.c.entities += c.entities
			if wk := refWitnessKey(c.witness); wk != "" && (m.witness == "" || wk < m.witness) {
				m.witness = wk
				m.c.witness = c.witness
			}
		}
	}
	out := make([]core.MergedSuggestion, 0, len(order))
	for _, key := range order {
		m := byKey[key]
		norm := norms[m.c.resultType]
		if norm == 0 {
			continue
		}
		weight := 1.0
		dist := 0
		known := true
		for i, w := range m.c.words {
			v, ok := weights[i][w]
			if !ok {
				known = false
				break
			}
			weight *= v.weight
			dist += v.dist
		}
		if !known {
			continue
		}
		if m.c.coherence != 0 {
			weight *= m.c.coherence
		}
		out = append(out, core.MergedSuggestion{
			Words:        m.c.words,
			Score:        weight * (m.c.sum / norm),
			ResultType:   m.c.resultType,
			Entities:     m.c.entities,
			EditDistance: dist,
			Witness:      m.c.witness,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Query() < out[j].Query()
	})
	k := cfg.K
	if k <= 0 {
		k = 10
	}
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// sameAsReference merges sets both ways and requires identical
// answers: words, types, entities, distances, witnesses, and scores
// compared with ==.
func sameAsReference(t *testing.T, ctx string, cfg core.MergeConfig, sets []core.PartialSet) int {
	t.Helper()
	got, err := core.MergePartials(cfg, sets)
	if err != nil {
		t.Fatalf("%s: merge: %v", ctx, err)
	}
	want, err := refMergePartials(cfg, sets)
	if err != nil {
		t.Fatalf("%s: reference merge: %v", ctx, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d suggestions\n got=%+v\nwant=%+v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Query() != w.Query() || len(g.Words) != len(w.Words) || g.ResultType != w.ResultType ||
			g.Entities != w.Entities || g.EditDistance != w.EditDistance ||
			g.Witness != w.Witness || g.Score != w.Score {
			t.Fatalf("%s rank %d:\n got=%+v\nwant=%+v", ctx, i, g, w)
		}
	}
	return len(got)
}

// The cluster fixture's corpus and queries (internal/cluster's
// newFixture: DBLP seed 29, 300 articles, sample queries at seed 30),
// plus 30 queries with a letter dropped from every longer word, which
// widens the variant lists: with few variants per keyword, z sums the
// same in any order and the comparison would miss a reordering.
func clusterCorpus() (*dataset.DBLPCorpus, []string) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 29, Articles: 300})
	queries := append(c.SampleQueries(30, 6), "databse systems", "algoritm", "zzzzqq")
	for _, q := range c.SampleQueries(31, 30) {
		words := strings.Fields(q)
		for i, w := range words {
			if len(w) > 4 {
				words[i] = w[:2] + w[3:]
			}
		}
		queries = append(queries, strings.Join(words, " "))
	}
	return c, queries
}

func TestMergePartialsMatchesReferenceOnShards(t *testing.T) {
	c, queries := clusterCorpus()
	ix := invindex.Build(c.Tree, tokenizer.Options{})
	for _, cfg := range []core.Config{
		{Epsilon: 2, Gamma: -1},
		{Epsilon: 2, Gamma: -1, Bigram: true, Beta: 2, K: 5},
	} {
		mc := core.MergeConfig{Beta: cfg.Beta, K: cfg.K}
		for _, n := range []int{1, 2, 4} {
			shards := make([]*core.Engine, n)
			for i := range shards {
				sl, err := ix.ShardEntities(i, n)
				if err != nil {
					t.Fatal(err)
				}
				shards[i] = core.NewEngine(sl, cfg)
			}
			answered := 0
			for _, q := range queries {
				sets := make([]core.PartialSet, n)
				for i, sh := range shards {
					ps, _, _, err := sh.SuggestPartialsContext(context.Background(), q, false)
					if err != nil {
						t.Fatal(err)
					}
					sets[i] = ps
				}
				answered += sameAsReference(t, fmt.Sprintf("bigram=%v shards=%d %q", cfg.Bigram, n, q), mc, sets)
			}
			if answered == 0 {
				t.Fatalf("shards=%d: no query answered; the comparison checked nothing", n)
			}
		}
	}
}

func TestMergePartialsMatchesReferenceOnStack(t *testing.T) {
	c, queries := clusterCorpus()
	var docs []string
	for _, ch := range c.Tree.Root.Children {
		var b bytes.Buffer
		if _, err := (&xmltree.Tree{Root: ch}).WriteXML(&b); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b.String())
	}
	base := len(docs) * 2 / 3
	tree := parseDoc(t, "<dblp>"+strings.Join(docs[:base], "")+"</dblp>")
	ix := invindex.BuildStored(tree, tokenizer.Options{})
	cfg := Config{Core: core.Config{Epsilon: 2, Gamma: -1}, TailLimit: 25, StoreText: true}
	st, err := NewStore(ix, core.NewEngine(ix, cfg.Core), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	st.holdCompactor(t)
	for _, d := range docs[base:] {
		if err := st.AddDocument(parseDoc(t, d)); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstones in the base and in a sealed live segment.
	for _, ord := range []uint32{3, 40, uint32(base + 5)} {
		if err := st.RemoveDocument(xmltree.Dewey{1, ord}); err != nil {
			t.Fatal(err)
		}
	}
	v := st.view.Load()
	if len(v.all()) < 3 {
		t.Fatalf("stack has %d segments; want a base, sealed live segments and a tail", len(v.all()))
	}
	mc := core.MergeConfig{Beta: st.cfg.Beta, K: st.cfg.K}
	answered := 0
	for _, q := range queries {
		kws := st.keywords(v, st.cfg.Tokenizer.Tokenize(q))
		if len(kws) == 0 {
			continue
		}
		sets, _, err := st.partialSets(context.Background(), v, kws)
		if err != nil {
			t.Fatal(err)
		}
		answered += sameAsReference(t, fmt.Sprintf("stack %q", q), mc, sets)
	}
	if answered == 0 {
		t.Fatal("no query answered; the comparison checked nothing")
	}
}
