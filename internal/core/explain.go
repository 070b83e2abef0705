package core

import (
	"time"

	"xclean/internal/obs"
)

// Explain is the per-query trace returned in Response.Explain (for
// plain and space-search requests alike): the wall-clock stage spans
// of the one call it describes, per-keyword variant counts, the work
// counters, and the final scored candidate table. It is what /suggest?debug=1 and
// `xclean -explain` render.
type Explain struct {
	// Query is the raw query that was traced.
	Query string `json:"query"`
	// TookNs is the total wall-clock time of the call in nanoseconds.
	// The call-level spans (worker == -1) plus the longest path through
	// the per-worker spans account for ≈ all of it; the remainder is
	// dispatch overhead.
	TookNs int64 `json:"tookNs"`
	// Spans are the stage spans: call-level stages carry worker == -1,
	// scan-phase stages one entry per shard.
	Spans []obs.Span `json:"spans"`
	// Keywords lists each scanned keyword with its ε-variant count.
	Keywords []ExplainKeyword `json:"keywords"`
	// Stats are the work counters of this call (same aggregate
	// SuggestDetailed returns).
	Stats Stats `json:"stats"`
	// Candidates is the final scored candidate table, in rank order.
	Candidates []ExplainCandidate `json:"candidates"`
}

// ExplainKeyword is one query keyword and the size of its ε-variant
// family (exact match included).
type ExplainKeyword struct {
	Token    string `json:"token"`
	Variants int    `json:"variants"`
}

// ExplainCandidate is one row of the final candidate table.
type ExplainCandidate struct {
	Words        []string `json:"words"`
	Score        float64  `json:"score"`
	EditDistance int      `json:"editDistance"`
	Entities     int      `json:"entities"`
	// ResultType is the inferred result node type, rendered as a
	// slash-separated path.
	ResultType string `json:"resultType"`
}

// newExplain assembles the trace of one finished call.
func (e *Engine) newExplain(query string, kws []Keyword, rc *runCtx, st Stats, out []Suggestion, total time.Duration) *Explain {
	ex := &Explain{
		Query:    query,
		TookNs:   total.Nanoseconds(),
		Spans:    obs.SpansOf(&rc.stages, rc.workers),
		Keywords: make([]ExplainKeyword, len(kws)),
		Stats:    st,
	}
	for i, kw := range kws {
		ex.Keywords[i] = ExplainKeyword{Token: kw.Raw, Variants: len(kw.Variants)}
	}
	ex.Candidates = make([]ExplainCandidate, len(out))
	for i, s := range out {
		ex.Candidates[i] = ExplainCandidate{
			Words:        s.Words,
			Score:        s.Score,
			EditDistance: s.EditDistance,
			Entities:     s.Entities,
			ResultType:   e.ix.PathTable().String(s.ResultType),
		}
	}
	return ex
}
