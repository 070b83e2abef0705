package core

import (
	"context"

	"xclean/internal/fastss"
	"xclean/internal/lm"
	"xclean/internal/resulttype"
	"xclean/internal/xmltree"
)

// Segmented-index support: a segmented engine (internal/segment) keeps
// a stack of immutable index segments, each holding a disjoint range of
// top-level documents. Eq. (8) decomposes additively over that
// partition — exactly the property the cluster's scatter-gather
// protocol exploits — so a segmented query runs the scan half of
// Algorithm 1 once per segment and folds the partial sums with
// MergePartials. Two things distinguish the in-process stack from the
// cluster: smoothing, type inference, and bigram statistics must come
// from the stack-global live collection (a remote shard uses its own,
// the stack substitutes shared models via ScanVariant), and segments
// carry tombstones (deadOrds/deadNorm) that the scan must filter.

// ScanOverrides configures a scan-variant engine: substituted global
// models and the tombstone state of one segment.
type ScanOverrides struct {
	// Model is the query generation model smoothed against the
	// stack-global live background.
	Model *lm.Model
	// Inferrer infers result types from stack-global live type lists.
	Inferrer *resulttype.Inferrer
	// Bigram is the stack-global coherence model; nil when the bigram
	// extension is off.
	Bigram *lm.BigramModel
	// Paths is the newest path table of the stack — a superset of every
	// segment's own table (tables grow append-only and clones preserve
	// IDs), consulted for paths this segment never interned.
	Paths *xmltree.PathTable
	// DeadOrds marks tombstoned top-level document ordinals of this
	// segment; their subtrees are skipped wholesale.
	DeadOrds map[uint32]bool
	// DeadNorm is the tombstoned prior mass per result type, subtracted
	// from the segment's cached normalizers.
	DeadNorm map[xmltree.PathID]float64
}

// ScanVariant returns a read-only copy of the engine that scores this
// engine's index with substituted global models and tombstone filters.
// The copy shares every immutable structure (index, variant index,
// cached priors) with the receiver; it carries no sink — the segment
// store owns the user call and observes it once. The receiver is not
// modified and may keep serving queries concurrently.
func (e *Engine) ScanVariant(o ScanOverrides) *Engine {
	// Field-by-field construction: Engine embeds a sync.Once (the lazy
	// FastSS build), so a struct copy would trip go vet and copy its
	// state.
	return &Engine{
		ix:        e.ix,
		fss:       e.fastss(),
		phon:      e.phon,
		model:     o.Model,
		bigram:    o.Bigram,
		inf:       o.Inferrer,
		em:        e.em,
		prior:     e.prior,
		cfg:       e.cfg,
		scanPaths: o.Paths,
		deadOrds:  o.DeadOrds,
		deadNorm:  o.DeadNorm,
	}
}

// pathsView is the path table used to interpret result types: the
// stack-global table on scan-variant engines, the index's own table
// otherwise.
func (e *Engine) pathsView() *xmltree.PathTable {
	if e.scanPaths != nil {
		return e.scanPaths
	}
	return e.ix.PathTable()
}

// liveNorm is the prior normalizer of result type p minus the
// tombstoned mass of this scan view (normFor itself on ordinary
// engines).
func (e *Engine) liveNorm(p xmltree.PathID) float64 {
	n := e.prior.normFor(p)
	if e.deadNorm != nil {
		n -= e.deadNorm[p]
	}
	return n
}

// VariantMatches exposes the engine's merged variant set for one
// keyword token (edit-distance neighbors plus any enabled phonetic and
// synonym sources). The segment store unions these across segments to
// build the stack-global variant sets.
func (e *Engine) VariantMatches(tok string) []fastss.Match { return e.variants(tok) }

// SuggestPartialsForKeywords runs the scan half of Algorithm 1 over a
// prepared keyword list and returns the raw per-candidate partial sums
// — the per-segment half of the segmented query path. Unlike
// SuggestPartialsContext it performs no tokenization, no variant
// lookup, and no sink observation: the caller built the keywords once
// against the whole stack and owns the user-call observability.
func (e *Engine) SuggestPartialsForKeywords(ctx context.Context, kws []Keyword) (PartialSet, Stats, error) {
	return e.partials(ctx, kws, e.cfg.workers(), nil)
}
