package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"xclean/internal/obs"
	"xclean/internal/xmltree"
)

// Scatter-gather support: Eq. (8) scores a candidate as
//
//	P(C|T) = (1/N) Σ_j Π_{w∈C} P(w|D(r_j))
//
// — a sum over disjoint entities — so the score decomposes additively
// over any partition of the entity set. A shard holding a subset of
// the entities (invindex.Index.ShardEntities) can therefore report,
// per candidate, its local Σ_j term and its local entity counts, and a
// coordinator recovers the exact global score by adding partial sums
// and normalizing by the summed entity counts. The error-model weights
// and the bigram coherence factor are entity-independent, so they are
// applied once, coordinator-side, from the union of the shards'
// variant hits.
//
// SuggestPartialsContext is the shard half; MergePartials is the
// coordinator half. A PartialSet is index-keyed: a candidate names its
// words by index into the set's own variant lists and its result type
// by index into the set's own path dictionary, and carries its witness
// as the fixed-width Dewey key. Neither half builds a string per
// candidate, and the shard wire (internal/cluster) writes every word
// and path once per set.

// PartialVariant is one variant hit of a query keyword: a vocabulary
// word within the edit threshold, with its edit distance.
type PartialVariant struct {
	Word string
	Dist int
}

// PartialCandidate is one candidate query's shard-local contribution:
// the raw prior-weighted entity sum of Eq. (8) before error-model
// weighting and normalization.
type PartialCandidate struct {
	// Choice holds, per keyword position i, the index of the
	// candidate's word in the set's Keywords[i].
	Choice []int32
	// ResultType indexes the set's Paths: the inferred result type.
	ResultType int32
	// Sum is Σ_j P(r_j|T)·Π_w P(w|D(r_j)) over locally matched
	// entities (with the local background adjustment under exact
	// scoring).
	Sum float64
	// Entities is the number of locally matched entities.
	Entities int
	// Witness is the first locally matched entity root as a fixed-width
	// Dewey key (xmltree.Dewey.Key, whose byte order is document
	// order), or "" when there is none.
	Witness string
	// Coherence is the bigram sequence factor (1 when the bigram
	// extension is off). Bigram statistics are collection-global, so
	// every shard reports the same value for the same words.
	Coherence float64
}

// TypeNorm is one eligible result type's shard-local prior normalizer
// (the local entity count under the uniform prior). Summed across
// shards it is the global N of Eq. (8).
type TypeNorm struct {
	// Path indexes the set's Paths.
	Path int32
	Norm float64
}

// PartialSet is one shard's complete answer for one query. Every
// Choice entry of a candidate indexes the matching Keywords list and
// every path index is below len(Paths); MergePartials relies on it and
// the wire decoder checks it.
type PartialSet struct {
	// Keywords lists, per query keyword position, the shard's variant
	// hits. Shards built with ShardEntities share the collection
	// vocabulary, so these sets coincide across shards; the coordinator
	// unions them defensively before recomputing error weights.
	Keywords [][]PartialVariant
	// Paths is the set's label-path dictionary: each path a TypeNorm or
	// a candidate names, once.
	Paths []string
	// TypeNorms holds the local normalizer of every eligible result
	// type, including types no candidate matched locally.
	TypeNorms []TypeNorm
	// Candidates are the shard's γ-bounded accumulators. They are not
	// truncated to top-k: a candidate outside one shard's local top-k
	// may still make the global top-k.
	Candidates []PartialCandidate
}

// SuggestPartialsContext runs the scan half of Algorithm 1 and returns
// the raw per-candidate partial sums instead of ranked suggestions —
// the shard side of the cluster's scatter-gather protocol — with the
// work counters of the call. The scan polls ctx and abandons the call
// with ctx.Err() once the coordinator's forwarded deadline (or the
// client) cancels it; the Stats then report the work done before the
// stop. explain additionally returns the stage spans of the call — the
// shard half of distributed tracing — at the cost of a few clock reads
// per stage.
func (e *Engine) SuggestPartialsContext(ctx context.Context, query string, explain bool) (PartialSet, Stats, []obs.Span, error) {
	if e.sink == nil && !explain {
		ps, st, err := e.partials(ctx, e.Keywords(query), e.cfg.workers(), nil)
		return ps, st, nil, err
	}
	start := time.Now()
	rc := &runCtx{}
	toks := e.cfg.Tokenizer.Tokenize(query)
	rc.stages[obs.StageTokenize] += time.Since(start)
	t0 := time.Now()
	kws := e.keywordsFor(toks)
	rc.stages[obs.StageVariants] += time.Since(t0)

	ps, st, err := e.partials(ctx, kws, e.cfg.workers(), rc)
	e.observeCall(time.Since(start), rc, st)
	if err != nil || !explain {
		return ps, st, nil, err
	}
	return ps, st, obs.SpansOf(&rc.stages, rc.workers), nil
}

// partials is the one PartialSet builder, shared by the shard entry
// above and the per-segment scans of a segmented stack: it runs the
// scan half of Algorithm 1 over prepared keywords on the given number
// of scan workers and reports the variant hits, the live normalizer of
// every eligible result type, and the γ-bounded candidate sums.
func (e *Engine) partials(ctx context.Context, kws []Keyword, workers int, rc *runCtx) (PartialSet, Stats, error) {
	nv := 0
	for _, kw := range kws {
		nv += len(kw.Variants)
	}
	vars := make([]PartialVariant, 0, nv)
	ps := PartialSet{Keywords: make([][]PartialVariant, len(kws))}
	for i, kw := range kws {
		from := len(vars)
		for _, v := range kw.Variants {
			vars = append(vars, PartialVariant{Word: v.Word, Dist: v.Dist})
		}
		ps.Keywords[i] = vars[from:len(vars):len(vars)]
	}

	acc, st, err := e.scanKeywords(ctx, kws, workers, rc)
	if err != nil {
		return PartialSet{}, st, err
	}
	// Report the local normalizer of every eligible result type even
	// when no candidate matched locally: the coordinator's global N for
	// a type must include the entity counts of shards where the
	// candidate found no match, or a half-empty shard would inflate
	// every other shard's scores. Paths that exist only in other
	// segments of a stack contribute no entities here, so iterating the
	// index's own table is complete. The normalized paths open the
	// dictionary in PathID order; a candidate type outside them (a
	// tombstoned type, say) is appended after.
	own := e.ix.PathTable()
	d := e.cfg.minDepth()
	eligible := 0
	for p := xmltree.PathID(0); int(p) < own.Len(); p++ {
		if own.Depth(p) >= d && e.liveNorm(p) > 0 {
			eligible++
		}
	}
	ps.Paths = make([]string, 0, eligible)
	ps.TypeNorms = make([]TypeNorm, 0, eligible)
	var idBuf [16]xmltree.PathID
	ids := idBuf[:0] // ids[i] is the PathID of ps.Paths[i]
	for p := xmltree.PathID(0); int(p) < own.Len(); p++ {
		if own.Depth(p) < d {
			continue
		}
		if n := e.liveNorm(p); n > 0 {
			ps.TypeNorms = append(ps.TypeNorms, TypeNorm{Path: int32(len(ps.Paths)), Norm: n})
			ps.Paths = append(ps.Paths, own.String(p))
			ids = append(ids, p)
		}
	}
	pathIndex := func(p xmltree.PathID) int32 {
		if i, ok := slices.BinarySearch(ids[:eligible], p); ok {
			return int32(i)
		}
		if i := slices.Index(ids[eligible:], p); i >= 0 {
			return int32(eligible + i)
		}
		ids = append(ids, p)
		ps.Paths = append(ps.Paths, e.pathsView().String(p))
		return int32(len(ids) - 1)
	}

	if acc == nil {
		return ps, st, nil
	}
	defer acc.release()
	if acc.len() == 0 {
		return ps, st, nil
	}

	all := acc.all()
	slices.SortFunc(all, func(a, b *accum) int { return strings.Compare(a.key, b.key) })
	// The choices are copied into one fresh backing array, and the
	// witness keys are strings of their own, so nothing returned pins
	// the table's slabs.
	choices := make([]int32, 0, len(all)*len(kws))
	ps.Candidates = make([]PartialCandidate, 0, len(all))
	for _, a := range all {
		sum := a.sum
		if e.cfg.ScoreMode == ScoreModeExact {
			// The shard-local exact adjustment: unmatched local entities
			// contribute their background-only mass. Entities on other
			// shards are accounted for by their own partials only when
			// the candidate is discovered there, so exact-mode cluster
			// scores are a shard-local approximation (matched-only mode,
			// the default, is exact).
			sum += e.backgroundMass(a.words, a.resultType) - a.bgMatched
		}
		coherence := 1.0
		if e.bigram != nil {
			coherence = e.bigram.SequenceProb(a.words)
		}
		from := len(choices)
		for _, c := range a.choice {
			choices = append(choices, int32(c))
		}
		ps.Candidates = append(ps.Candidates, PartialCandidate{
			Choice:     choices[from:len(choices):len(choices)],
			ResultType: pathIndex(a.resultType),
			Sum:        sum,
			Entities:   a.entities,
			Witness:    a.witness,
			Coherence:  coherence,
		})
	}
	return ps, st, nil
}

// MergeConfig tunes MergePartials. It must mirror the shards' engine
// configuration where it overlaps (Beta, K).
type MergeConfig struct {
	// Beta is the error penalty β of the error model (0 = DefaultBeta).
	Beta float64
	// K is the number of suggestions returned (0 = 10).
	K int
}

func (c MergeConfig) k() int {
	if c.K <= 0 {
		return 10
	}
	return c.K
}

// MergedSuggestion is one globally ranked suggestion assembled from
// shard partials. It mirrors Suggestion with wire-friendly types
// (label-path and dot-form strings instead of table IDs).
type MergedSuggestion struct {
	Words        []string
	Score        float64
	ResultType   string
	Entities     int
	EditDistance int
	Witness      string
}

// Query renders the suggestion as a query string.
func (s MergedSuggestion) Query() string { return strings.Join(s.Words, " ") }

// MergePartials folds per-shard partial sets into the global top-k —
// the coordinator half of the scatter-gather protocol, and the
// cross-process analogue of the private per-worker accumulator merge.
// Per-candidate sums and per-type normalizers are added in set order
// (pass sets in shard order: shards hold contiguous document ranges,
// so that reproduces the standalone engine's summation order up to
// floating-point association), and the error-model weights are
// recomputed once from the union of the shards' variant hits. Sets
// from failed shards are simply omitted by the caller; the merge then
// yields the surviving shards' best answer.
//
// The merge works on indexes: each set's variant and path indexes are
// remapped into per-call global dictionaries, candidates fold under
// their packed global variant indexes, and witnesses compare as keys.
// Words and dot-form witnesses are built for the returned top-k only.
//
// It returns an error when the sets disagree on the number of query
// keywords (shards answering different queries or tokenizer configs).
func MergePartials(cfg MergeConfig, sets []PartialSet) ([]MergedSuggestion, error) {
	nkw := -1
	for _, s := range sets {
		if len(s.Keywords) == 0 && len(s.Candidates) == 0 {
			continue // hopeless or empty shard answer carries no arity
		}
		if nkw == -1 {
			nkw = len(s.Keywords)
		} else if len(s.Keywords) != nkw {
			return nil, fmt.Errorf("core: keyword arity mismatch across shards (%d vs %d)",
				nkw, len(s.Keywords))
		}
	}
	if nkw <= 0 {
		return nil, nil
	}
	sc := mergePool.Get().(*mergeScratch)
	defer sc.release()
	sc.variants(cfg, sets, nkw)
	sc.types(sets)
	sc.fold(sets, nkw)
	return sc.rank(cfg.k(), nkw), nil
}

// mergeScratch is MergePartials' working memory, pooled across calls.
// Nothing in it outlives a call: the returned suggestions are built in
// fresh slices, and release drops every string it still references.
type mergeScratch struct {
	// refs is one keyword's variant hits across every set.
	refs []variantRef
	// gv holds the global variant dictionary, keyword after keyword;
	// keyword i's variants are gv[gStart[i]:gStart[i+1]] in (dist,
	// word) order with their merged weights.
	gv     []Variant
	gStart []int32
	// remap maps set s's variant j of keyword i to its index within
	// keyword i's global run: remap[keyOff[s*nkw+i]+j].
	remap  []int32
	keyOff []int32
	// gpaths is the global path dictionary and pathIdx its index; set
	// s's path j is global path pathRemap[pathOff[s]+j], and norms[g]
	// is global path g's summed normalizer.
	pathIdx   map[string]int32
	gpaths    []string
	pathRemap []int32
	pathOff   []int32
	norms     []float64
	// cands holds the folded candidates; byKey indexes them by packed
	// global variant indexes (4 big-endian bytes per keyword).
	cands []mergedCand
	byKey map[string]int32
	// words holds the scored candidates' words, nkw per candidate, for
	// the ranking tie-break.
	words []string
}

// variantRef is one set's hit of one keyword's variant; at locates its
// remap slot. min is its word's minimum distance across the sets.
type variantRef struct {
	word string
	dist int
	min  int
	at   int32
}

// mergedCand is one candidate folded across sets.
type mergedCand struct {
	key       string
	rt        int32 // global path index
	sum       float64
	entities  int
	witness   string // fixed-width key form, for document-order min
	coherence float64
	score     float64
	w         int32 // offset of its words in mergeScratch.words
}

var mergePool = sync.Pool{New: func() any {
	return &mergeScratch{pathIdx: make(map[string]int32), byKey: make(map[string]int32)}
}}

func (sc *mergeScratch) release() {
	clear(sc.refs[:cap(sc.refs)])
	clear(sc.gv[:cap(sc.gv)])
	clear(sc.gpaths[:cap(sc.gpaths)])
	clear(sc.cands[:cap(sc.cands)])
	clear(sc.words[:cap(sc.words)])
	clear(sc.pathIdx)
	clear(sc.byKey)
	mergePool.Put(sc)
}

// resized returns s with length n, reusing its storage when it can.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// variants unions the sets' variant hits per keyword position (minimum
// distance wins) and recomputes normalized error weights once. The
// union is laid out in (dist, word) order, the shard-side variant
// order, so the normalizer z is summed in the same order as a
// standalone engine sums it.
func (sc *mergeScratch) variants(cfg MergeConfig, sets []PartialSet, nkw int) {
	sc.keyOff = resized(sc.keyOff, len(sets)*nkw)
	total := int32(0)
	for s, set := range sets {
		if len(set.Keywords) != nkw {
			continue
		}
		for i, vs := range set.Keywords {
			sc.keyOff[s*nkw+i] = total
			total += int32(len(vs))
		}
	}
	sc.remap = resized(sc.remap, int(total))
	sc.gv = sc.gv[:0]
	sc.gStart = append(sc.gStart[:0], 0)
	em := ErrorModel{Beta: cfg.Beta}
	for i := 0; i < nkw; i++ {
		refs := sc.refs[:0]
		for s, set := range sets {
			if len(set.Keywords) != nkw {
				continue
			}
			off := sc.keyOff[s*nkw+i]
			for j, v := range set.Keywords[i] {
				refs = append(refs, variantRef{word: v.Word, dist: v.Dist, at: off + int32(j)})
			}
		}
		// Group by word, nearest first, to find each word's minimum
		// distance; then order by (minimum distance, word), which lays
		// the groups out in dictionary order.
		slices.SortFunc(refs, func(a, b variantRef) int {
			if c := strings.Compare(a.word, b.word); c != 0 {
				return c
			}
			return cmp.Compare(a.dist, b.dist)
		})
		for r := range refs {
			refs[r].min = refs[r].dist
			if r > 0 && refs[r].word == refs[r-1].word {
				refs[r].min = refs[r-1].min
			}
		}
		slices.SortFunc(refs, func(a, b variantRef) int {
			if a.min != b.min {
				return cmp.Compare(a.min, b.min)
			}
			return strings.Compare(a.word, b.word)
		})
		base := len(sc.gv)
		for r := range refs {
			if r == 0 || refs[r].word != refs[r-1].word {
				sc.gv = append(sc.gv, Variant{Word: refs[r].word, Dist: refs[r].min})
			}
			sc.remap[refs[r].at] = int32(len(sc.gv) - 1 - base)
		}
		em.weigh(sc.gv[base:])
		sc.gStart = append(sc.gStart, int32(len(sc.gv)))
		sc.refs = refs
	}
}

// types builds the global path dictionary and the global normalizers:
// Σ over sets, in set order, of the local per-type norms.
func (sc *mergeScratch) types(sets []PartialSet) {
	sc.pathOff = resized(sc.pathOff, len(sets))
	np := int32(0)
	for s, set := range sets {
		sc.pathOff[s] = np
		np += int32(len(set.Paths))
	}
	sc.pathRemap = resized(sc.pathRemap, int(np))
	sc.gpaths = sc.gpaths[:0]
	for s, set := range sets {
		for j, p := range set.Paths {
			g, ok := sc.pathIdx[p]
			if !ok {
				g = int32(len(sc.gpaths))
				sc.pathIdx[p] = g
				sc.gpaths = append(sc.gpaths, p)
			}
			sc.pathRemap[sc.pathOff[s]+int32(j)] = g
		}
	}
	sc.norms = resized(sc.norms, len(sc.gpaths))
	clear(sc.norms)
	for s, set := range sets {
		for _, tn := range set.TypeNorms {
			sc.norms[sc.pathRemap[sc.pathOff[s]+tn.Path]] += tn.Norm
		}
	}
}

// fold merges candidates by keyword sequence, adding partial sums in
// set order and keeping the document-first witness. Every candidate's
// key is written once into one string, so the map's keys are slices of
// it.
func (sc *mergeScratch) fold(sets []PartialSet, nkw int) {
	n := 0
	for _, set := range sets {
		if len(set.Keywords) == nkw {
			n += len(set.Candidates)
		}
	}
	var keys strings.Builder
	keys.Grow(n * nkw * 4)
	sc.cands = sc.cands[:0]
	for s, set := range sets {
		if len(set.Keywords) != nkw {
			continue
		}
		for _, c := range set.Candidates {
			if len(c.Choice) != nkw {
				continue
			}
			from := keys.Len()
			for i, j := range c.Choice {
				g := sc.remap[sc.keyOff[s*nkw+i]+j]
				keys.WriteByte(byte(g >> 24))
				keys.WriteByte(byte(g >> 16))
				keys.WriteByte(byte(g >> 8))
				keys.WriteByte(byte(g))
			}
			key := keys.String()[from:]
			at, ok := sc.byKey[key]
			if !ok {
				sc.byKey[key] = int32(len(sc.cands))
				sc.cands = append(sc.cands, mergedCand{
					key:       key,
					rt:        sc.pathRemap[sc.pathOff[s]+c.ResultType],
					sum:       c.Sum,
					entities:  c.Entities,
					witness:   c.Witness,
					coherence: c.Coherence,
				})
				continue
			}
			m := &sc.cands[at]
			m.sum += c.Sum
			m.entities += c.Entities
			if c.Witness != "" && (m.witness == "" || c.Witness < m.witness) {
				m.witness = c.Witness
			}
		}
	}
}

// choiceAt is keyword i's global variant index within a packed key.
func choiceAt(key string, i int) int32 {
	k := key[4*i : 4*i+4]
	return int32(k[0])<<24 | int32(k[1])<<16 | int32(k[2])<<8 | int32(k[3])
}

// rank scores the folded candidates and returns the top k, best first.
func (sc *mergeScratch) rank(k, nkw int) []MergedSuggestion {
	n := 0
	for _, m := range sc.cands {
		norm := sc.norms[m.rt]
		if norm == 0 {
			continue
		}
		// Mirror finalize's operation order exactly: Π variant weights,
		// then the coherence factor, then × (sum / norm).
		weight := 1.0
		for i := 0; i < nkw; i++ {
			weight *= sc.gv[sc.gStart[i]+choiceAt(m.key, i)].Weight
		}
		if m.coherence != 0 {
			weight *= m.coherence
		}
		m.score = weight * (m.sum / norm)
		sc.cands[n] = m
		n++
	}
	cands := sc.cands[:n]
	// The ranking tie-break compares words, so resolve every scored
	// candidate's words once, into scratch; the top k are copied out.
	sc.words = resized(sc.words, n*nkw)
	for c := range cands {
		cands[c].w = int32(c * nkw)
		for i := 0; i < nkw; i++ {
			sc.words[c*nkw+i] = sc.gv[sc.gStart[i]+choiceAt(cands[c].key, i)].Word
		}
	}
	words := sc.words
	slices.SortFunc(cands, func(a, b mergedCand) int {
		if a.score != b.score {
			return -cmp.Compare(a.score, b.score)
		}
		wa, wb := words[a.w:int(a.w)+nkw], words[b.w:int(b.w)+nkw]
		switch {
		case joinedLess(wa, wb):
			return -1
		case joinedLess(wb, wa):
			return 1
		}
		return 0
	})
	k = min(k, n)
	out := make([]MergedSuggestion, k)
	ws := make([]string, k*nkw)
	for r, m := range cands[:k] {
		w := ws[r*nkw : (r+1)*nkw : (r+1)*nkw]
		copy(w, words[m.w:])
		dist := 0
		for i := 0; i < nkw; i++ {
			dist += sc.gv[sc.gStart[i]+choiceAt(m.key, i)].Dist
		}
		witness := ""
		if m.witness != "" {
			witness = xmltree.DeweyFromKey(m.witness).String()
		}
		out[r] = MergedSuggestion{
			Words:        w,
			Score:        m.score,
			ResultType:   sc.gpaths[m.rt],
			Entities:     m.entities,
			EditDistance: dist,
			Witness:      witness,
		}
	}
	return out
}
