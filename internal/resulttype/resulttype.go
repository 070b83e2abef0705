// Package resulttype infers the most probable result node type of a
// candidate query, following Eq. (7) of the XClean paper (which adopts
// the XReal formula):
//
//	U(C,p) = log(1 + Π_{w∈C} f_p^w) · r^depth(p)
//
// where f_p^w is the number of nodes of label path p whose subtree
// contains w, and r < 1 penalizes deep paths. The best type defines
// the entity decomposition used by the query generation model.
package resulttype

import (
	"math"

	"xclean/internal/invindex"
	"xclean/internal/xmltree"
)

// DefaultR is the depth reduction rate used when Inferrer.R is zero;
// the paper's examples use 0.8.
const DefaultR = 0.8

// Source supplies the statistics inference reads: the type lists
// f_p^w and path depths. invindex.Index implements it directly; the
// segmented engine substitutes a tombstone-adjusted multi-segment
// view.
type Source interface {
	TypeList(tok string) []invindex.TypeCount
	PathDepth(p xmltree.PathID) int
}

// Inferrer computes best result types against one index.
type Inferrer struct {
	Index Source
	// R is the depth reduction factor (0 = DefaultR).
	R float64
	// MinDepth is the minimal depth threshold d of Section V-B: label
	// paths shallower than this are never result types. 0 or 1 means
	// no restriction beyond the root.
	MinDepth int
}

func (in *Inferrer) r() float64 {
	if in.R <= 0 {
		return DefaultR
	}
	return in.R
}

// Utility is U(C,p) for the candidate query given as a token slice.
// It returns 0 when some token never occurs under a node of path p.
func (in *Inferrer) Utility(tokens []string, p xmltree.PathID) float64 {
	prod := 1.0
	for _, w := range tokens {
		f := int32(0)
		for _, tc := range in.Index.TypeList(w) {
			if tc.Path == p {
				f = tc.F
				break
			}
		}
		if f == 0 {
			return 0
		}
		prod *= float64(f)
	}
	depth := in.Index.PathDepth(p)
	return math.Log(1+prod) * math.Pow(in.r(), float64(depth))
}

// Best implements FindResultType(C): it intersects the type lists of
// all tokens and returns the path maximizing U(C,p), restricted to
// paths of depth ≥ MinDepth. ok is false when no type contains every
// token (the candidate query has no connected result).
func (in *Inferrer) Best(tokens []string) (best xmltree.PathID, score float64, ok bool) {
	if len(tokens) == 0 {
		return xmltree.InvalidPath, 0, false
	}
	// Start from the rarest type list to keep the intersection small.
	// Queries of up to 8 keywords keep the list headers on the stack.
	var stack [8][]invindex.TypeCount
	lists := stack[:0]
	if len(tokens) > len(stack) {
		lists = make([][]invindex.TypeCount, 0, len(tokens))
	}
	lists = lists[:len(tokens)]
	minIdx := 0
	for i, w := range tokens {
		lists[i] = in.Index.TypeList(w)
		if len(lists[i]) == 0 {
			return xmltree.InvalidPath, 0, false
		}
		if len(lists[i]) < len(lists[minIdx]) {
			minIdx = i
		}
	}

	best = xmltree.InvalidPath
	r := in.r()
	for _, tc := range lists[minIdx] {
		depth := in.Index.PathDepth(tc.Path)
		if depth < in.MinDepth {
			continue
		}
		prod := float64(tc.F)
		found := true
		for i, l := range lists {
			if i == minIdx {
				continue
			}
			f := lookup(l, tc.Path)
			if f == 0 {
				found = false
				break
			}
			prod *= float64(f)
		}
		if !found {
			continue
		}
		u := math.Log(1+prod) * math.Pow(r, float64(depth))
		if best == xmltree.InvalidPath || u > score || (u == score && tc.Path < best) {
			best, score = tc.Path, u
		}
	}
	return best, score, best != xmltree.InvalidPath
}

// lookup finds path p in a type list sorted by path ID (binary search).
func lookup(l []invindex.TypeCount, p xmltree.PathID) int32 {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case l[mid].Path < p:
			lo = mid + 1
		case l[mid].Path > p:
			hi = mid
		default:
			return l[mid].F
		}
	}
	return 0
}
