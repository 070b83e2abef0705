// Package slca implements the SLCA-semantics variant of the XClean
// framework (Section VI-B of the paper): each candidate query's
// entities are its Smallest Lowest Common Ancestor nodes, and Eq. (8)
// is evaluated over that per-candidate entity set.
//
// The engine follows the same one-pass structure as Algorithm 1 —
// merged variant lists, anchor nodes, subtree grouping at the minimal
// depth d — and computes SLCAs inside each group with the classic
// pairwise slca merge of Xu & Papakonstantinou (the "multi-way SLCA"
// algorithm the paper adapts), so every inverted list is still read
// only once.
package slca

import (
	"context"
	"sort"
	"strings"
	"time"

	"xclean/internal/core"
	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/lm"
	"xclean/internal/obs"
	"xclean/internal/xmltree"
)

// Engine answers top-k cleaning requests under the SLCA semantics, or
// under the ELCA semantics when built by NewELCAEngine.
type Engine struct {
	ix    *invindex.Index
	fss   *fastss.Index
	model *lm.Model
	em    core.ErrorModel
	cfg   core.Config
	// elca switches the entity decomposition from SLCA to ELCA nodes.
	elca bool
	// sink, when non-nil, receives per-call latency, stage, and work
	// aggregates. Carried across Refresh.
	sink *obs.Sink
}

// SetSink attaches (or with nil, detaches) the observability sink.
// Must not race with in-flight queries; set it before serving.
func (e *Engine) SetSink(s *obs.Sink) { e.sink = s }

// Sink returns the attached sink, or nil.
func (e *Engine) Sink() *obs.Sink { return e.sink }

// NewEngine builds an SLCA engine over an index with the same Config
// knobs as the core engine. The ResultType of returned suggestions is
// always InvalidPath: SLCA entities have no single type.
func NewEngine(ix *invindex.Index, cfg core.Config) *Engine {
	fss := fastss.Build(ix.VocabList(), fastss.Config{
		MaxErrors:    maxErrors(cfg),
		PartitionLen: partitionLen(cfg),
	})
	return NewEngineWithFastSS(ix, fss, cfg)
}

// NewEngineWithFastSS builds an SLCA engine reusing a prebuilt variant
// index.
func NewEngineWithFastSS(ix *invindex.Index, fss *fastss.Index, cfg core.Config) *Engine {
	return &Engine{
		ix:    ix,
		fss:   fss,
		model: lm.New(ix.Vocab, cfg.Mu),
		em:    core.ErrorModel{Beta: cfg.Beta},
		cfg:   cfg,
	}
}

// Refresh rebuilds derived structures after an incremental index
// mutation, adding the given words to the variant index (known words
// are ignored). Queries must go to the returned engine. Like the
// result-type engine's Refresh, it is copy-on-write: the shared
// variant index is cloned before being extended, so sibling engines
// may keep serving queries concurrently.
func (e *Engine) Refresh(newWords []string) *Engine {
	fss := e.fss
	if len(newWords) > 0 {
		fss = fss.Clone()
		for _, w := range newWords {
			fss.Add(w)
		}
	}
	ne := NewEngineWithFastSS(e.ix, fss, e.cfg)
	ne.elca = e.elca
	ne.sink = e.sink
	return ne
}

func maxErrors(cfg core.Config) int {
	if cfg.Epsilon <= 0 {
		return 1
	}
	return cfg.Epsilon
}

func partitionLen(cfg core.Config) int {
	if cfg.PartitionLen <= 0 {
		return 12
	}
	return cfg.PartitionLen
}

func (e *Engine) minDepth() int {
	if e.cfg.MinDepth <= 0 {
		return 2
	}
	return e.cfg.MinDepth
}

func (e *Engine) k() int {
	if e.cfg.K <= 0 {
		return 10
	}
	return e.cfg.K
}

// candAgg accumulates one candidate's entity sum across subtrees.
type candAgg struct {
	words    []string
	weight   float64
	sum      float64
	norm     float64 // Σ prior weights over this candidate's entities
	entities int
	dist     int
	witness  xmltree.Dewey // first entity root
}

// Suggest returns the top-k alternative queries under the SLCA
// semantics.
func (e *Engine) Suggest(query string) []core.Suggestion {
	res, _ := e.Query(context.Background(), core.Request{Query: query})
	return res.Suggestions
}

// Query answers one request by the SLCA (or ELCA) scan. The space
// model is a result-type extension, so req.Spaces is ignored. The
// anchor scan polls ctx once per cancellation interval and a cancelled
// or expired ctx makes the call return ctx.Err() with no suggestions
// and no trace. A trace (req.Explain) carries one worker entry — the
// scan is single-threaded — empty result types (SLCA entities have no
// single node type), and zero type-cache counters (this path infers no
// types).
func (e *Engine) Query(ctx context.Context, req core.Request) (core.Response, error) {
	query, explain := req.Query, req.Explain
	timed := e.sink != nil || explain
	var start, t0 time.Time
	var stages, worker obs.StageDurations
	var st core.Stats
	if timed {
		start = time.Now()
		t0 = start
	}
	finish := func(out []core.Suggestion, kws []core.Keyword, err error) (core.Response, error) {
		if err != nil {
			out = nil
		}
		if !timed {
			return core.Response{Suggestions: out, Stats: st}, err
		}
		stages[obs.StageScan] += worker[obs.StageScan]
		stages[obs.StageEnumerate] += worker[obs.StageEnumerate]
		total := time.Since(start)
		if s := e.sink; s != nil {
			s.ObserveSuggest(total, &stages)
			s.PostingsRead.Add(int64(st.PostingsRead))
			s.Subtrees.Add(int64(st.Subtrees))
			s.CandidatesSeen.Add(int64(st.CandidatesSeen))
		}
		if !explain || err != nil {
			return core.Response{Suggestions: out, Stats: st}, err
		}
		st.WorkerSubtrees = []int{st.Subtrees}
		ex := &core.Explain{
			Query:    query,
			TookNs:   total.Nanoseconds(),
			Spans:    obs.SpansOf(&stages, []obs.StageDurations{worker}),
			Keywords: make([]core.ExplainKeyword, len(kws)),
			Stats:    st,
		}
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
			}
		}
		return core.Response{Suggestions: out, Stats: st, Explain: ex}, nil
	}

	toks := e.cfg.Tokenizer.Tokenize(query)
	if timed {
		stages[obs.StageTokenize] += time.Since(t0)
		t0 = time.Now()
	}
	if len(toks) == 0 {
		return finish(nil, nil, nil)
	}
	kws := make([]core.Keyword, len(toks))
	for i, tok := range toks {
		kws[i] = e.em.Keyword(tok, e.fss.Search(tok))
		if len(kws[i].Variants) == 0 {
			if timed {
				stages[obs.StageVariants] += time.Since(t0)
			}
			return finish(nil, kws[:i+1], nil)
		}
	}
	if timed {
		stages[obs.StageVariants] += time.Since(t0)
		t0 = time.Now()
	}

	d := e.minDepth()
	lists := make([]*invindex.MergedList, len(kws))
	for i, kw := range kws {
		tokens := make([]string, len(kw.Variants))
		for j, v := range kw.Variants {
			tokens[j] = v.Word
		}
		lists[i] = e.ix.MergedListFor(tokens)
		lists[i].SetLinearSkip(e.cfg.LinearSkip)
	}
	defer func() {
		for _, l := range lists {
			l.Release()
		}
	}()

	aggs := make(map[string]*candAgg)
	occ := make([]map[int][]invindex.Posting, len(kws))
	for i := range occ {
		occ[i] = make(map[int][]invindex.Posting)
	}

	// The SLCA scan is single-threaded, so it polls the context itself
	// at the same granularity as the core engine's scan shards.
	done := ctx.Done()
	sinceCheck := 0
	var g xmltree.Dewey // reused copy of the current subtree root
	anchor, ok := maxHead(lists)
	for ok {
		if done != nil {
			if sinceCheck == 0 {
				select {
				case <-done:
					if timed {
						worker[obs.StageScan] += time.Since(t0) - worker[obs.StageEnumerate]
					}
					return finish(nil, kws, ctx.Err())
				default:
				}
				sinceCheck = core.CancelCheckEvery
			}
			sinceCheck--
		}
		// anchor aliases the head of a list CollectSubtree is about to
		// advance (invindex.Entry's lifetime): copy before any list moves.
		// The occ postings collected below stay valid until their list
		// next moves, i.e. through this iteration's enumerate.
		g = append(g[:0], anchor.Truncate(d)...)
		for i := range occ {
			for k := range occ[i] {
				delete(occ[i], k)
			}
		}
		complete := true
		for i, l := range lists {
			found := false
			l.CollectSubtree(g, func(entry invindex.Entry) {
				occ[i][entry.TokenIdx] = append(occ[i][entry.TokenIdx], entry.Posting)
				st.PostingsRead++
				found = true
			})
			if !found {
				complete = false
			}
		}
		if complete {
			st.Subtrees++
			var te time.Time
			if timed {
				te = time.Now()
			}
			e.enumerate(kws, occ, aggs, &st)
			if timed {
				worker[obs.StageEnumerate] += time.Since(te)
			}
		}
		anchor, ok = maxHead(lists)
	}
	if timed {
		worker[obs.StageScan] += time.Since(t0) - worker[obs.StageEnumerate]
		t0 = time.Now()
	}

	var out []core.Suggestion
	for _, a := range aggs {
		if a.entities == 0 || a.norm == 0 {
			continue
		}
		out = append(out, core.Suggestion{
			Words:        a.words,
			Score:        a.weight * a.sum / a.norm,
			ResultType:   xmltree.InvalidPath,
			Entities:     a.entities,
			EditDistance: a.dist,
			Witness:      a.witness,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Query() < out[j].Query()
	})
	if k := e.k(); len(out) > k {
		out = out[:k]
	}
	if timed {
		stages[obs.StageRank] += time.Since(t0)
	}
	return finish(out, kws, nil)
}

func maxHead(lists []*invindex.MergedList) (xmltree.Dewey, bool) {
	var max xmltree.Dewey
	for _, l := range lists {
		entry, ok := l.CurPos()
		if !ok {
			return nil, false
		}
		if max == nil || entry.Dewey.Compare(max) > 0 {
			max = entry.Dewey
		}
	}
	return max, max != nil
}

// enumerate walks the candidate space present in the current subtree
// and scores each candidate's SLCA entities.
func (e *Engine) enumerate(kws []core.Keyword, occ []map[int][]invindex.Posting, aggs map[string]*candAgg, st *core.Stats) {
	present := make([][]int, len(kws))
	for i := range kws {
		if len(occ[i]) == 0 {
			return
		}
		for idx := range occ[i] {
			present[i] = append(present[i], idx)
		}
		sort.Ints(present[i])
	}
	choice := make([]int, len(kws))
	var rec func(i int)
	rec = func(i int) {
		if i == len(kws) {
			st.CandidatesSeen++
			e.scoreCandidate(kws, choice, occ, aggs)
			return
		}
		for _, idx := range present[i] {
			choice[i] = idx
			rec(i + 1)
		}
	}
	rec(0)
}

func (e *Engine) scoreCandidate(kws []core.Keyword, choice []int, occ []map[int][]invindex.Posting, aggs map[string]*candAgg) {
	words := make([]string, len(kws))
	occSets := make([][]invindex.Posting, len(kws))
	for i, idx := range choice {
		words[i] = kws[i].Variants[idx].Word
		occSets[i] = occ[i][idx]
		if len(occSets[i]) == 0 {
			return
		}
	}

	d := e.minDepth()
	var entities []xmltree.Dewey
	if e.elca {
		entities = elcaOfSets(occSets, d)
	} else {
		entities = slcaOfSets(occSets)
	}
	if len(entities) == 0 {
		return
	}

	key := strings.Join(words, "\x00")
	a := aggs[key]
	for _, root := range entities {
		if root.Depth() < d {
			continue
		}
		counts := make([]int32, len(kws))
		for i := range kws {
			for _, p := range occSets[i] {
				if root.AncestorOrSelf(p.Dewey) {
					counts[i] += p.TF
				}
			}
		}
		docLen := e.ix.SubtreeLen(root)
		pw := e.cfg.EntityWeight(root.Key(), docLen)
		prob := e.model.QueryProb(words, counts, docLen)
		if a == nil {
			a = &candAgg{words: append([]string(nil), words...)}
			a.weight = 1
			for i, idx := range choice {
				a.weight *= kws[i].Variants[idx].Weight
				a.dist += kws[i].Variants[idx].Dist
			}
			aggs[key] = a
		}
		a.sum += pw * prob
		a.norm += pw
		if a.entities == 0 {
			a.witness = root.Clone()
		}
		a.entities++
	}
}

// slcaOfSets computes the SLCA set of l Dewey sets by repeated
// pairwise merging: slca(S1,...,Sl) = slca(slca(S1,...,S_{l-1}), Sl).
func slcaOfSets(occ [][]invindex.Posting) []xmltree.Dewey {
	cur := deweys(occ[0])
	cur = removeAncestors(cur)
	for i := 1; i < len(occ); i++ {
		cur = slcaPair(cur, deweys(occ[i]))
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

func deweys(pl []invindex.Posting) []xmltree.Dewey {
	out := make([]xmltree.Dewey, len(pl))
	for i, p := range pl {
		out[i] = p.Dewey
	}
	return out
}

// slcaPair computes slca(A, B) for doc-ordered Dewey sets: for each
// a∈A, the deeper of lca(a, pred_B(a)) and lca(a, succ_B(a)), with
// ancestors removed.
func slcaPair(a, b []xmltree.Dewey) []xmltree.Dewey {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var res []xmltree.Dewey
	for _, x := range a {
		// succ: first element of b ≥ x.
		i := sort.Search(len(b), func(j int) bool { return b[j].Compare(x) >= 0 })
		var best xmltree.Dewey
		if i < len(b) {
			best = lca(x, b[i])
		}
		if i > 0 {
			if l := lca(x, b[i-1]); best == nil || l.Depth() > best.Depth() {
				best = l
			}
		}
		if best != nil && best.Depth() > 0 {
			res = append(res, best)
		}
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Compare(res[j]) < 0 })
	return removeAncestors(res)
}

// lca returns the longest common prefix of two Dewey codes.
func lca(a, b xmltree.Dewey) xmltree.Dewey {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// removeAncestors drops every element that is an ancestor of (or equal
// to) another element, leaving a doc-ordered antichain. Input must be
// sorted in document order.
func removeAncestors(in []xmltree.Dewey) []xmltree.Dewey {
	var out []xmltree.Dewey
	for _, d := range in {
		// Drop previous results that are ancestors of d; skip d if it
		// equals the previous result.
		for len(out) > 0 && out[len(out)-1].AncestorOf(d) {
			out = out[:len(out)-1]
		}
		if len(out) > 0 && out[len(out)-1].Compare(d) == 0 {
			continue
		}
		out = append(out, d)
	}
	return out
}
