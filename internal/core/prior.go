package core

import (
	"xclean/internal/invindex"
	"xclean/internal/xmltree"
)

// Prior selects the entity prior P(r_j|T) of Eq. (8). The paper uses a
// uniform prior "for simplicity" and notes the framework "can be
// easily generalized to non-uniform priors if additional data or
// domain knowledge is available (e.g., query logs)" — these are those
// generalizations.
type Prior int

const (
	// PriorUniform is the paper's default: P(r_j|T) = 1/N.
	PriorUniform Prior = iota
	// PriorLength weights each entity by its virtual-document length,
	// P(r_j|T) ∝ |D(r_j)|: users are assumed likelier to target
	// content-rich entities. This is the document-prior analogue of
	// length-based priors in the language-modeling IR literature.
	PriorLength
	// PriorCustom weights entities by Config.CustomPrior (e.g. click or
	// view counts from a query log); absent entities get weight 1, so a
	// partial log degrades gracefully toward uniform.
	PriorCustom
)

// entityPrior evaluates P(r_j|T) up to the per-result-type normalizer.
type entityPrior struct {
	mode   Prior
	custom map[string]float64
	ix     invindex.Source
	// norm caches Σ weights per result type; populated eagerly at
	// construction so concurrent Suggest calls read it lock-free.
	norm map[xmltree.PathID]float64
}

func newEntityPrior(ix invindex.Source, mode Prior, custom map[string]float64) *entityPrior {
	ep := &entityPrior{mode: mode, custom: custom, ix: ix}
	if mode == PriorUniform {
		return ep // normFor answers from NodesWithPath; no cache needed
	}
	ep.norm = make(map[xmltree.PathID]float64, ix.PathTable().Len())
	for p := xmltree.PathID(0); int(p) < ix.PathTable().Len(); p++ {
		var z float64
		switch mode {
		case PriorLength:
			for _, l := range ix.SubtreeLensByPath(p) {
				z += float64(l)
			}
		case PriorCustom:
			var kb []byte
			for _, key := range ix.RootsByPath(p) {
				kb = append(kb[:0], key...)
				z += ep.customWeight(kb)
			}
		}
		ep.norm[p] = z
	}
	return ep
}

func (ep *entityPrior) customWeight(rootKey []byte) float64 {
	if w, ok := ep.custom[string(rootKey)]; ok && w > 0 { // no alloc: map lookup
		return 1 + w
	}
	return 1
}

// weight is the unnormalized prior weight of one entity, keyed by its
// root's Dewey key bytes.
func (ep *entityPrior) weight(rootKey []byte, docLen int32) float64 {
	switch ep.mode {
	case PriorLength:
		return float64(docLen)
	case PriorCustom:
		return ep.customWeight(rootKey)
	default:
		return 1
	}
}

// EntityWeight is the unnormalized prior weight of one entity under
// the configured prior. The LCA-family engines, which normalize per
// candidate rather than per result type, share it.
func (c Config) EntityWeight(rootKey string, docLen int32) float64 {
	switch c.Prior {
	case PriorLength:
		return float64(docLen)
	case PriorCustom:
		if w, ok := c.CustomPrior[rootKey]; ok && w > 0 {
			return 1 + w
		}
		return 1
	default:
		return 1
	}
}

// normFor is Σ weight over all entities of result type p; 0 means the
// type admits no entity mass and candidates typed there are dropped.
func (ep *entityPrior) normFor(p xmltree.PathID) float64 {
	if ep.mode == PriorUniform {
		return float64(ep.ix.NodesWithPath(p))
	}
	return ep.norm[p]
}
