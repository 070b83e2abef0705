package segment

import (
	"context"
	"math"
	"sort"
	"strings"
	"time"

	"xclean/internal/core"
	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/lm"
	"xclean/internal/resulttype"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// The multi-segment query path. Eq. (8) sums over entities, entities
// partition by document, and documents partition by segment — so the
// per-candidate score decomposes into per-segment partial sums that
// core.MergePartials recombines exactly. What must NOT be per-segment
// is everything derived from collection-wide statistics: the variant
// sets (a word live in any segment is a valid variant), the Dirichlet
// background P(w|B), the result-type lists f_p^w, and the bigram
// table. This file materializes those stack-global live models once
// per query and injects them into every segment's scan via
// core.Engine.ScanVariant.

func (st *Store) minDepth() int {
	if st.cfg.MinDepth <= 0 {
		return 2
	}
	return st.cfg.MinDepth
}

func (st *Store) k() int {
	if st.cfg.K <= 0 {
		return 10
	}
	return st.cfg.K
}

func (st *Store) tau() int {
	if st.cfg.MaxSpaceChanges <= 0 {
		return 1
	}
	return st.cfg.MaxSpaceChanges
}

func (st *Store) beta() float64 {
	if st.cfg.Beta < 0 {
		return 0
	}
	if st.cfg.Beta == 0 {
		return core.DefaultBeta
	}
	return st.cfg.Beta
}

// Suggest answers one request against a pinned view of the stack: the
// segmented analogue of core.Engine.Query, with optional space-error
// expansion and explain trace. Stats are summed across segments (and
// shapes); the sink observes the call once at this level — the
// per-segment scan engines carry no sink.
func (st *Store) Suggest(ctx context.Context, req core.Request) ([]core.MergedSuggestion, core.Stats, *core.Explain, error) {
	query := req.Query
	start := time.Now()
	v := st.view.Load()
	var (
		out   []core.MergedSuggestion
		stats core.Stats
		kws   []core.Keyword
		err   error
	)
	if req.Spaces {
		out, stats, kws, err = st.suggestSpaces(ctx, v, query)
	} else {
		kws = st.keywords(v, st.cfg.Tokenizer.Tokenize(query))
		out, stats, err = st.suggestKeywords(ctx, v, kws)
	}
	took := time.Since(start)
	if st.sink != nil {
		st.sink.ObserveSuggest(took, nil)
		st.sink.PostingsRead.Add(int64(stats.PostingsRead))
		st.sink.Subtrees.Add(int64(stats.Subtrees))
		st.sink.CandidatesSeen.Add(int64(stats.CandidatesSeen))
		st.sink.TypeCacheHits.Add(int64(stats.TypeCacheHits))
		st.sink.TypeCacheMisses.Add(int64(stats.TypeComputations))
		st.sink.Evictions.Add(int64(stats.Evictions))
	}
	if err != nil {
		return nil, stats, nil, err
	}
	var ex *core.Explain
	if req.Explain {
		ex = &core.Explain{Query: query, TookNs: took.Nanoseconds(), Stats: stats}
		ex.Keywords = make([]core.ExplainKeyword, len(kws))
		for i, kw := range kws {
			ex.Keywords[i] = core.ExplainKeyword{Token: kw.Raw, Variants: len(kw.Variants)}
		}
		ex.Candidates = make([]core.ExplainCandidate, len(out))
		for i, s := range out {
			ex.Candidates[i] = core.ExplainCandidate{
				Words:        s.Words,
				Score:        s.Score,
				EditDistance: s.EditDistance,
				Entities:     s.Entities,
				ResultType:   s.ResultType,
			}
		}
	}
	return out, stats, ex, nil
}

// keywords builds the stack-global keyword structures: per token, the
// union of every segment's variant matches (minimum distance wins),
// restricted to words still live somewhere, sorted like the
// monolithic variant set, and weighted by the shared error model.
func (st *Store) keywords(v *View, toks []string) []core.Keyword {
	em := core.ErrorModel{Beta: st.cfg.Beta}
	segs := v.all()
	kws := make([]core.Keyword, len(toks))
	for i, tok := range toks {
		min := make(map[string]int)
		for _, sg := range segs {
			for _, m := range sg.eng.VariantMatches(tok) {
				if d, ok := min[m.Word]; !ok || m.Dist < d {
					min[m.Word] = m.Dist
				}
			}
		}
		matches := make([]fastss.Match, 0, len(min))
		for w, d := range min {
			if liveCountIn(v, w) > 0 {
				matches = append(matches, fastss.Match{Word: w, Dist: d})
			}
		}
		sort.Slice(matches, func(a, b int) bool {
			if matches[a].Dist != matches[b].Dist {
				return matches[a].Dist < matches[b].Dist
			}
			return matches[a].Word < matches[b].Word
		})
		kws[i] = em.Keyword(tok, matches)
	}
	return kws
}

// suggestKeywords scans every segment with the global models and folds
// the partials.
func (st *Store) suggestKeywords(ctx context.Context, v *View, kws []core.Keyword) ([]core.MergedSuggestion, core.Stats, error) {
	if len(kws) == 0 {
		return nil, core.Stats{}, nil
	}
	sets, stats, err := st.partialSets(ctx, v, kws)
	if err != nil {
		return nil, stats, err
	}
	out, err := core.MergePartials(core.MergeConfig{Beta: st.cfg.Beta, K: st.cfg.K}, sets)
	return out, stats, err
}

// partialSets runs the scan half on every segment of the view with the
// stack-global models. Segments run sequentially (each scan
// parallelizes internally per the engine's Workers setting); the set
// order is the ordinal order, reproducing the monolithic summation
// order.
func (st *Store) partialSets(ctx context.Context, v *View, kws []core.Keyword) ([]core.PartialSet, core.Stats, error) {
	var stats core.Stats
	models := st.buildModels(v, kws)
	sets := make([]core.PartialSet, 0, len(v.segs)+1)
	for _, sg := range v.all() {
		se := sg.eng.ScanVariant(core.ScanOverrides{
			Model:    models.model,
			Inferrer: models.inf,
			Bigram:   models.bigram,
			Paths:    v.paths,
			DeadOrds: sg.deadOrds,
			DeadNorm: sg.deadNorm,
		})
		ps, sstat, err := se.SuggestPartialsForKeywords(ctx, kws)
		if err != nil {
			return nil, stats, err
		}
		addStats(&stats, sstat)
		sets = append(sets, ps)
	}
	return sets, stats, nil
}

// suggestSpaces is the space-error path over the stack: shapes are
// enumerated against the live vocabulary, each shape runs the full
// segmented scan, and per-shape top-k lists compete after the
// exp(−β·changes) penalty — mirroring the monolithic
// suggestSpacesObserved ordering (truncate per shape, then penalize,
// then merge).
func (st *Store) suggestSpaces(ctx context.Context, v *View, query string) ([]core.MergedSuggestion, core.Stats, []core.Keyword, error) {
	var stats core.Stats
	raw := tokenizer.TokenizeRaw(query)
	shapes := st.expandShapes(v, raw, st.tau())
	beta := st.beta()
	var baseKws []core.Keyword
	best := make(map[string]core.MergedSuggestion)
	for si, sh := range shapes {
		kept := st.filterShape(sh.tokens)
		if len(kept) == 0 {
			if si == 0 {
				baseKws = nil
			}
			continue
		}
		kws := st.keywords(v, kept)
		if si == 0 {
			baseKws = kws
		}
		sugs, sstat, err := st.suggestKeywords(ctx, v, kws)
		addStats(&stats, sstat)
		if err != nil {
			return nil, stats, baseKws, err
		}
		penalty := math.Exp(-beta * float64(sh.changes))
		for _, s := range sugs {
			s.Score *= penalty
			s.EditDistance += sh.changes
			q := s.Query()
			if old, ok := best[q]; !ok || s.Score > old.Score {
				best[q] = s
			}
		}
	}
	var out []core.MergedSuggestion
	if len(best) > 0 {
		out = make([]core.MergedSuggestion, 0, len(best))
		for _, s := range best {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score > out[j].Score
			}
			return out[i].Query() < out[j].Query()
		})
		if k := st.k(); len(out) > k {
			out = out[:k]
		}
	}
	return out, stats, baseKws, nil
}

type spaceShape struct {
	tokens  []string
	changes int
}

// expandShapes mirrors core.Engine.expandShapes with the stack-global
// live vocabulary as the validity oracle.
func (st *Store) expandShapes(v *View, tokens []string, tau int) []spaceShape {
	contains := func(w string) bool { return liveCountIn(v, w) > 0 }
	seen := map[string]bool{}
	var out []spaceShape
	var queue []spaceShape
	push := func(s spaceShape) {
		key := strings.Join(s.tokens, "\x00")
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
			queue = append(queue, s)
		}
	}
	push(spaceShape{tokens: tokens})
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.changes >= tau {
			continue
		}
		for i := 0; i+1 < len(cur.tokens); i++ {
			merged := cur.tokens[i] + cur.tokens[i+1]
			if !contains(merged) {
				continue
			}
			next := make([]string, 0, len(cur.tokens)-1)
			next = append(next, cur.tokens[:i]...)
			next = append(next, merged)
			next = append(next, cur.tokens[i+2:]...)
			push(spaceShape{tokens: next, changes: cur.changes + 1})
		}
		for i, tok := range cur.tokens {
			r := []rune(tok)
			for cut := 1; cut < len(r); cut++ {
				a, b := string(r[:cut]), string(r[cut:])
				if !contains(a) || !contains(b) {
					continue
				}
				next := make([]string, 0, len(cur.tokens)+1)
				next = append(next, cur.tokens[:i]...)
				next = append(next, a, b)
				next = append(next, cur.tokens[i+1:]...)
				push(spaceShape{tokens: next, changes: cur.changes + 1})
			}
		}
	}
	return out
}

func (st *Store) filterShape(tokens []string) []string {
	var kept []string
	for _, t := range tokens {
		if ts := st.cfg.Tokenizer.Tokenize(t); len(ts) == 1 {
			kept = append(kept, ts[0])
		}
	}
	return kept
}

// queryModels bundles the per-query global model substitutions.
type queryModels struct {
	model  *lm.Model
	inf    *resulttype.Inferrer
	bigram *lm.BigramModel
}

// buildModels materializes the stack-global live statistics the scan
// engines consume. Everything a concurrent scan reads is precomputed
// into read-only maps keyed by the query's variant words; rare lookups
// outside that set fall back to stateless sums over the pinned view.
func (st *Store) buildModels(v *View, kws []core.Keyword) queryModels {
	words := make([]string, 0, 16)
	seen := make(map[string]bool, 16)
	for _, kw := range kws {
		for _, vr := range kw.Variants {
			if !seen[vr.Word] {
				seen[vr.Word] = true
				words = append(words, vr.Word)
			}
		}
	}

	var liveTotal int64
	for _, s := range v.all() {
		liveTotal += s.liveTokens()
	}
	lv := &liveVocab{
		v:      v,
		counts: make(map[string]int64, len(words)),
		total:  liveTotal,
		size:   int64(v.vocabSize),
	}
	for _, w := range words {
		lv.counts[w] = liveCountIn(v, w)
	}

	lt := &liveTypes{v: v, lists: make(map[string][]invindex.TypeCount, len(words))}
	for _, w := range words {
		lt.lists[w] = mergedTypeList(v, w)
	}

	m := queryModels{
		model: lm.New(lv, st.cfg.Mu),
		inf:   &resulttype.Inferrer{Index: lt, R: st.cfg.R, MinDepth: st.minDepth()},
	}
	if st.cfg.Bigram {
		m.bigram = lm.NewBigram(&liveBigrams{v: v}, lv, st.cfg.BigramLambda)
	}
	return m
}

// liveVocab is the stack-global live background distribution: the
// Dirichlet background P(w|B) of Eq. (9) over non-tombstoned content,
// matching tokenizer.Vocabulary.Prob on a monolithic index of the same
// live corpus. It implements lm.Background and lm.UnigramSource.
type liveVocab struct {
	v      *View
	counts map[string]int64 // precomputed for the query's variant words
	total  int64
	size   int64
}

func (lv *liveVocab) Count(w string) int64 {
	if c, ok := lv.counts[w]; ok {
		return c
	}
	return liveCountIn(lv.v, w)
}

func (lv *liveVocab) Prob(w string) float64 {
	denom := lv.total + lv.size
	if denom == 0 {
		return 0
	}
	return float64(lv.Count(w)+1) / float64(denom)
}

// liveTypes is the stack-global live type-list source (f_p^w of
// Eq. (7)). It implements resulttype.Source.
type liveTypes struct {
	v     *View
	lists map[string][]invindex.TypeCount
}

func (lt *liveTypes) TypeList(tok string) []invindex.TypeCount {
	if l, ok := lt.lists[tok]; ok {
		return l
	}
	return mergedTypeList(lt.v, tok)
}

func (lt *liveTypes) PathDepth(p xmltree.PathID) int { return lt.v.paths.Depth(p) }

// mergedTypeList sums the segments' tombstone-adjusted type lists.
// Every segment containing the token counts the shared root once, so
// the root entry is clamped to one — the monolithic value. The result
// is sorted by path ID (the inferrer binary-searches it).
func mergedTypeList(v *View, tok string) []invindex.TypeCount {
	sum := make(map[xmltree.PathID]int32, 8)
	for _, s := range v.all() {
		deadTypes := s.dead.DeadTypes(tok)
		for _, tc := range s.ix.TypeList(tok) {
			f := tc.F - deadTypes[tc.Path]
			if f != 0 {
				sum[tc.Path] += f
			}
		}
	}
	if len(sum) == 0 {
		return nil
	}
	out := make([]invindex.TypeCount, 0, len(sum))
	for p, f := range sum {
		if f <= 0 {
			continue
		}
		if v.paths.Depth(p) == 1 && f > 1 {
			f = 1
		}
		out = append(out, invindex.TypeCount{Path: p, F: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// liveBigrams is the stack-global live adjacency source; stateless
// per-lookup sums keep it race-free. It implements lm.BigramSource.
type liveBigrams struct{ v *View }

func (lb *liveBigrams) BigramCount(w1, w2 string) int64 {
	var n int64
	for _, s := range lb.v.all() {
		n += s.ix.BigramCount(w1, w2) - s.dead.DeadBigrams(w1, w2)
	}
	return n
}

// addStats accumulates per-segment scan counters (core.Stats.add is
// unexported; the fields are not).
func addStats(dst *core.Stats, s core.Stats) {
	dst.PostingsRead += s.PostingsRead
	dst.Subtrees += s.Subtrees
	dst.CandidatesSeen += s.CandidatesSeen
	dst.TypeComputations += s.TypeComputations
	dst.TypeCacheHits += s.TypeCacheHits
	dst.Evictions += s.Evictions
	dst.WorkerSubtrees = append(dst.WorkerSubtrees, s.WorkerSubtrees...)
}
