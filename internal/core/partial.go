package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"xclean/internal/fastss"
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
// coordinator half. Both work on label-path strings and dot-form Dewey
// codes so the types survive a JSON wire format without sharing a path
// table.

// PartialVariant is one variant hit of a query keyword: a vocabulary
// word within the edit threshold, with its edit distance.
type PartialVariant struct {
	Word string `json:"word"`
	Dist int    `json:"dist"`
}

// PartialCandidate is one candidate query's shard-local contribution:
// the raw prior-weighted entity sum of Eq. (8) before error-model
// weighting and normalization.
type PartialCandidate struct {
	// Words is the candidate keyword sequence.
	Words []string `json:"words"`
	// ResultType is the inferred result type as a label path.
	ResultType string `json:"resultType"`
	// Sum is Σ_j P(r_j|T)·Π_w P(w|D(r_j)) over locally matched
	// entities (with the local background adjustment under exact
	// scoring).
	Sum float64 `json:"sum"`
	// Entities is the number of locally matched entities.
	Entities int `json:"entities"`
	// Witness is the first locally matched entity root (dot form).
	Witness string `json:"witness,omitempty"`
	// Coherence is the bigram sequence factor (1 when the bigram
	// extension is off). Bigram statistics are collection-global, so
	// every shard reports the same value for the same words.
	Coherence float64 `json:"coherence"`
}

// PartialSet is one shard's complete answer for one query.
type PartialSet struct {
	// Keywords lists, per query keyword position, the shard's variant
	// hits. Shards built with ShardEntities share the collection
	// vocabulary, so these sets coincide across shards; the coordinator
	// unions them defensively before recomputing error weights.
	Keywords [][]PartialVariant `json:"keywords"`
	// TypeNorms maps each eligible result-type label path to the
	// shard-local prior normalizer (the local entity count under the
	// uniform prior). Summed across shards it is the global N of
	// Eq. (8).
	TypeNorms map[string]float64 `json:"typeNorms,omitempty"`
	// Candidates are the shard's γ-bounded accumulators. They are not
	// truncated to top-k: a candidate outside one shard's local top-k
	// may still make the global top-k.
	Candidates []PartialCandidate `json:"candidates,omitempty"`
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
	ps := PartialSet{Keywords: make([][]PartialVariant, len(kws))}
	for i, kw := range kws {
		vs := make([]PartialVariant, len(kw.Variants))
		for j, v := range kw.Variants {
			vs[j] = PartialVariant{Word: v.Word, Dist: v.Dist}
		}
		ps.Keywords[i] = vs
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
	// index's own table is complete.
	norms := make(map[string]float64)
	d := e.cfg.minDepth()
	for p := xmltree.PathID(0); int(p) < e.ix.PathTable().Len(); p++ {
		if e.ix.PathTable().Depth(p) < d {
			continue
		}
		if n := e.liveNorm(p); n > 0 {
			norms[e.ix.PathTable().String(p)] = n
		}
	}
	ps.TypeNorms = norms

	if acc == nil {
		return ps, st, nil
	}
	defer acc.release()
	if acc.len() == 0 {
		return ps, st, nil
	}

	all := acc.all()
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	// The candidates' words are copied into one fresh backing array, so
	// that nothing returned pins the table's slabs.
	nw := 0
	for _, a := range all {
		nw += len(a.words)
	}
	words := make([]string, 0, nw)
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
		witness := ""
		if a.witness != "" {
			witness = xmltree.DeweyFromKey(a.witness).String()
		}
		from := len(words)
		words = append(words, a.words...)
		ps.Candidates = append(ps.Candidates, PartialCandidate{
			Words:      words[from:len(words):len(words)],
			ResultType: e.pathsView().String(a.resultType),
			Sum:        sum,
			Entities:   a.entities,
			Witness:    witness,
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

	// Union the variant hits per keyword position (minimum distance
	// wins) and recompute normalized error weights once. Sorting by
	// (dist, word) reproduces the shard-side variant order, so the
	// normalizer z is summed in the same order as a standalone engine.
	type vw struct {
		weight float64
		dist   int
	}
	em := ErrorModel{Beta: cfg.Beta}
	weights := make([]map[string]vw, nkw)
	for i := 0; i < nkw; i++ {
		best := make(map[string]int)
		for _, s := range sets {
			if len(s.Keywords) != nkw {
				continue
			}
			for _, v := range s.Keywords[i] {
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

	// Global normalizers: Σ over shards of the local per-type norms.
	norms := make(map[string]float64)
	for _, s := range sets {
		for label, n := range s.TypeNorms {
			norms[label] += n
		}
	}

	// Fold candidates by keyword sequence, adding partial sums in set
	// order and keeping the document-first witness.
	type merged struct {
		c       PartialCandidate
		witness string // fixed-width key form, for document-order min
	}
	byKey := make(map[string]*merged)
	var order []string
	for _, s := range sets {
		if len(s.Keywords) != nkw {
			continue
		}
		for _, c := range s.Candidates {
			if len(c.Words) != nkw {
				continue
			}
			key := strings.Join(c.Words, "\x00")
			m, ok := byKey[key]
			if !ok {
				cc := c
				cc.Words = append([]string(nil), c.Words...)
				byKey[key] = &merged{c: cc, witness: witnessKey(c.Witness)}
				order = append(order, key)
				continue
			}
			m.c.Sum += c.Sum
			m.c.Entities += c.Entities
			if wk := witnessKey(c.Witness); wk != "" && (m.witness == "" || wk < m.witness) {
				m.witness = wk
				m.c.Witness = c.Witness
			}
		}
	}

	out := make([]MergedSuggestion, 0, len(order))
	for _, key := range order {
		m := byKey[key]
		norm := norms[m.c.ResultType]
		if norm == 0 {
			continue
		}
		// Mirror finalize's operation order exactly: Π variant weights,
		// then the coherence factor, then × (sum / norm).
		weight := 1.0
		dist := 0
		known := true
		for i, w := range m.c.Words {
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
		if m.c.Coherence != 0 {
			weight *= m.c.Coherence
		}
		out = append(out, MergedSuggestion{
			Words:        m.c.Words,
			Score:        weight * (m.c.Sum / norm),
			ResultType:   m.c.ResultType,
			Entities:     m.c.Entities,
			EditDistance: dist,
			Witness:      m.c.Witness,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return rankBefore(out[i].Score, out[i].Words, out[j].Score, out[j].Words)
	})
	if k := cfg.k(); len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// witnessKey converts a dot-form Dewey code to its fixed-width key,
// whose byte order is document order ("" for empty or malformed).
func witnessKey(code string) string {
	if code == "" {
		return ""
	}
	d, err := xmltree.ParseDewey(code)
	if err != nil {
		return ""
	}
	return d.Key()
}
