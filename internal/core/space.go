package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"time"

	"xclean/internal/obs"
	"xclean/internal/tokenizer"
)

// shape is one alternative tokenization of the query obtained by
// inserting or deleting spaces (Section VI-A).
type shape struct {
	tokens  []string
	changes int
}

// SuggestWithSpaces extends Suggest with the space-error model of
// Section VI-A (Request.Spaces): up to τ (Config.MaxSpaceChanges)
// insertions or deletions of spaces are explored, each validated
// against the vocabulary, and every resulting candidate query competes
// in one ranked list. Each space change is penalized like a single
// edit error, exp(-β), on the final score.
func (e *Engine) SuggestWithSpaces(query string) []Suggestion {
	res, _ := e.Query(context.Background(), Request{Query: query, Spaces: true})
	return res.Suggestions
}

// suggestSpacesObserved is the single user-call entry of the space
// path. Shapes are independent Algorithm 1 runs over the same index,
// so they are embarrassingly parallel: up to Config.Workers shapes run
// concurrently (each with a sequential scan, keeping the call's total
// parallelism at Config.Workers), and their results are merged in
// deterministic shape order. Stats are summed over every explored
// shape. Each shape carries its own runCtx (no shared timing state
// across goroutines); the contexts are merged in shape order once
// every shape has finished, and a trace's keyword table reports the
// base (unchanged) tokenization. Every shape's scan polls the same
// context, so cancellation stops the whole fan-out.
func (e *Engine) suggestSpacesObserved(ctx context.Context, query string, explain bool) ([]Suggestion, Stats, *Explain, error) {
	timed := e.sink != nil || explain
	var start time.Time
	var rc *runCtx
	if timed {
		start = time.Now()
		rc = &runCtx{}
	}
	raw := tokenizer.TokenizeRaw(query)
	shapes := e.expandShapes(raw, e.cfg.tau())
	if timed {
		rc.stages[obs.StageTokenize] += time.Since(start)
	}

	type shapeResult struct {
		sugs []Suggestion
		st   Stats
		kws  []Keyword
		rc   *runCtx
		err  error
	}
	results := make([]shapeResult, len(shapes))
	run := func(i, inner int) {
		kept := e.filterShape(shapes[i].tokens)
		if len(kept) == 0 {
			return
		}
		var src *runCtx
		var tv time.Time
		if timed {
			src = &runCtx{}
			tv = time.Now()
		}
		kws := e.keywordsFor(kept)
		if timed {
			src.stages[obs.StageVariants] += time.Since(tv)
		}
		sugs, st, err := e.suggestKeywordsN(ctx, kws, inner, src)
		results[i] = shapeResult{sugs: sugs, st: st, kws: kws, rc: src, err: err}
	}
	if w := e.cfg.workers(); w > 1 && len(shapes) > 1 {
		// Parallelism lives at the shape level here: each shape's scan
		// runs sequentially (inner = 1) so one call stays bounded at
		// Config.Workers goroutines rather than Workers² through nested
		// fan-out.
		sem := make(chan struct{}, w)
		var wg sync.WaitGroup
		for i := range shapes {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				run(i, 1)
				<-sem
			}(i)
		}
		wg.Wait()
	} else {
		for i := range shapes {
			run(i, e.cfg.workers())
		}
	}

	var tr time.Time
	if timed {
		tr = time.Now()
	}
	var total Stats
	var scanErr error
	beta := e.em.beta()
	best := make(map[string]Suggestion)
	for i, sh := range shapes {
		total.add(results[i].st)
		if err := results[i].err; err != nil && scanErr == nil {
			scanErr = err
		}
		penalty := math.Exp(-beta * float64(sh.changes))
		for _, s := range results[i].sugs {
			s.Score *= penalty
			s.EditDistance += sh.changes
			q := s.Query()
			if old, ok := best[q]; !ok || s.Score > old.Score {
				best[q] = s
			}
		}
	}
	if scanErr != nil {
		// A cancelled shape poisons the whole call: a merged list missing
		// one shape's candidates would silently mis-rank. The aggregate
		// counters (and, when timed, the sink observation below) still
		// reflect the work actually done.
		if timed {
			for i := range results {
				if src := results[i].rc; src != nil {
					rc.stages.Add(&src.stages)
					rc.workers = append(rc.workers, src.workers...)
				}
			}
			e.observeCall(time.Since(start), rc, total)
		}
		return nil, total, nil, scanErr
	}

	var out []Suggestion
	if len(best) > 0 {
		out = make([]Suggestion, 0, len(best))
		for _, s := range best {
			out = append(out, s)
		}
		sortSuggestions(out)
		if k := e.cfg.k(); len(out) > k {
			out = out[:k]
		}
	}

	if !timed {
		return out, total, nil, nil
	}
	for i := range results {
		if src := results[i].rc; src != nil {
			rc.stages.Add(&src.stages)
			rc.workers = append(rc.workers, src.workers...)
		}
	}
	rc.stages[obs.StageRank] += time.Since(tr)
	totalDur := time.Since(start)
	e.observeCall(totalDur, rc, total)
	var ex *Explain
	if explain {
		ex = e.newExplain(query, results[0].kws, rc, total, out, totalDur)
	}
	return out, total, ex, nil
}

// expandShapes enumerates tokenizations reachable with at most tau
// space changes: merging two adjacent tokens (space deletion) when the
// concatenation is a vocabulary term, and splitting one token into two
// vocabulary terms (space insertion).
func (e *Engine) expandShapes(tokens []string, tau int) []shape {
	seen := map[string]bool{}
	var out []shape
	var queue []shape
	push := func(s shape) {
		key := strings.Join(s.tokens, "\x00")
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
			queue = append(queue, s)
		}
	}
	push(shape{tokens: tokens})

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.changes >= tau {
			continue
		}
		// Space deletions: merge adjacent pairs.
		for i := 0; i+1 < len(cur.tokens); i++ {
			merged := cur.tokens[i] + cur.tokens[i+1]
			if !e.ix.Vocabulary().Contains(merged) {
				continue
			}
			next := make([]string, 0, len(cur.tokens)-1)
			next = append(next, cur.tokens[:i]...)
			next = append(next, merged)
			next = append(next, cur.tokens[i+2:]...)
			push(shape{tokens: next, changes: cur.changes + 1})
		}
		// Space insertions: split one token into two vocabulary terms.
		for i, tok := range cur.tokens {
			r := []rune(tok)
			for cut := 1; cut < len(r); cut++ {
				a, b := string(r[:cut]), string(r[cut:])
				if !e.ix.Vocabulary().Contains(a) || !e.ix.Vocabulary().Contains(b) {
					continue
				}
				next := make([]string, 0, len(cur.tokens)+1)
				next = append(next, cur.tokens[:i]...)
				next = append(next, a, b)
				next = append(next, cur.tokens[i+1:]...)
				push(shape{tokens: next, changes: cur.changes + 1})
			}
		}
	}
	return out
}

// filterShape applies the index token filters (stop words, numbers,
// minimum length) to a shape's tokens.
func (e *Engine) filterShape(tokens []string) []string {
	var kept []string
	for _, t := range tokens {
		if ts := e.cfg.Tokenizer.Tokenize(t); len(ts) == 1 {
			kept = append(kept, ts[0])
		}
	}
	return kept
}

// keywordsFor builds keyword structures for already-tokenized input.
func (e *Engine) keywordsFor(tokens []string) []Keyword {
	kws := make([]Keyword, len(tokens))
	for i, tok := range tokens {
		kws[i] = e.em.Keyword(tok, e.variants(tok))
	}
	return kws
}
