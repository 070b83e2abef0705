// Package core implements the XClean framework itself: the error
// model (Section IV-B1), the candidate query space, the main one-pass
// top-k algorithm (Algorithm 1, Section V-C), and the probabilistic
// accumulator pruning (Section V-D).
package core

import (
	"math"

	"xclean/internal/fastss"
)

// DefaultBeta is the error penalty parameter; the paper finds β=5 best
// on almost every query set (Table IV).
const DefaultBeta = 5

// Variant is one vocabulary word within the edit threshold of a query
// keyword, with its error-model weight.
type Variant struct {
	Word string
	Dist int
	// Weight is the normalized error probability P(w|q) of Eq. (4):
	// exp(-β·ed(q,w)) / z, where z sums over the variant set.
	Weight float64
}

// Keyword is one query keyword with its variant set var_ε(q).
type Keyword struct {
	Raw      string
	Variants []Variant
}

// ErrorModel assigns error probabilities to variants (Eq. (4)/(5)).
//
// The paper derives P(q|w) = P(w|q)·P(q)/P(w); ranking a fixed query Q
// leaves P(q) constant, and we take a uniform prior over intended
// words so that the normalized P(w|q) itself serves as the per-keyword
// error weight.
type ErrorModel struct {
	// Beta is the error penalty β (0 = DefaultBeta).
	Beta float64
}

func (m ErrorModel) beta() float64 {
	if m.Beta < 0 {
		return 0
	}
	if m.Beta == 0 {
		return DefaultBeta
	}
	return m.Beta
}

// Keyword converts a raw keyword and its FastSS matches into a Keyword
// with normalized weights. With β=0 every variant is equally likely;
// large β concentrates the mass on the closest variants.
func (m ErrorModel) Keyword(raw string, matches []fastss.Match) Keyword {
	kw := Keyword{Raw: raw, Variants: make([]Variant, len(matches))}
	for i, match := range matches {
		kw.Variants[i] = Variant{Word: match.Word, Dist: match.Dist}
	}
	m.weigh(kw.Variants)
	return kw
}

// weigh sets every variant's normalized weight from its distance, in
// slice order: z is summed first to last, so callers that present the
// same (dist, word) order get bit-identical weights.
func (m ErrorModel) weigh(vs []Variant) {
	beta := m.beta()
	var z float64
	for i := range vs {
		vs[i].Weight = math.Exp(-beta * float64(vs[i].Dist))
		z += vs[i].Weight
	}
	if z > 0 {
		for i := range vs {
			vs[i].Weight /= z
		}
	}
}

// ExactBeta is a Beta value that makes the model treat a 0-distance
// variant as (near-)certain; used in tests.
const ExactBeta = 50
