package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xclean/internal/xmltree"
)

// finalizeFullSort is the reference ranking finalize must reproduce:
// build a Suggestion for every accumulator, sort them all by score and
// then by query text, and cut to k.
func finalizeFullSort(e *Engine, kws []Keyword, acc *accumulators) []Suggestion {
	var out []Suggestion
	for _, a := range acc.all() {
		norm := e.liveNorm(a.resultType)
		if norm <= 0 {
			continue
		}
		weight, dist := 1.0, 0
		for i, idx := range a.choice {
			weight *= kws[i].Variants[idx].Weight
			dist += kws[i].Variants[idx].Dist
		}
		var witness xmltree.Dewey
		if a.witness != "" {
			witness = xmltree.DeweyFromKey(a.witness)
		}
		out = append(out, Suggestion{
			Words:        a.words,
			Score:        weight * (a.sum / norm),
			ResultType:   a.resultType,
			Entities:     a.entities,
			EditDistance: dist,
			Witness:      witness,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Query() < out[j].Query()
	})
	if k := e.cfg.k(); len(out) > k {
		out = out[:k]
	}
	return out
}

// TestFinalizeMatchesFullSort: selecting the top k before building
// suggestions returns exactly the full sort's first k — on heavy score
// ties, where only the query-text tie-break orders candidates, and
// when fewer than k candidates exist.
func TestFinalizeMatchesFullSort(t *testing.T) {
	e0 := paperEngine(Config{})
	var typ xmltree.PathID = xmltree.InvalidPath
	for p := xmltree.PathID(0); int(p) < e0.ix.PathTable().Len(); p++ {
		if e0.liveNorm(p) > 0 {
			typ = p
			break
		}
	}
	if typ == xmltree.InvalidPath {
		t.Fatal("paper corpus has no result type with entities")
	}
	// Words that are prefixes of each other, so the text tie-break
	// must compare across word boundaries.
	vocab := []string{"a", "ab", "b", "abc", "ba"}
	variants := make([]Variant, len(vocab))
	for i, w := range vocab {
		variants[i] = Variant{Word: w, Dist: i % 2, Weight: 0.25}
	}
	kws := []Keyword{{Variants: variants}, {Variants: variants}}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 4, 25} {
		for _, k := range []int{1, 3, 10, 25} {
			e := paperEngine(Config{K: k})
			acc := newAccumulators(0, EvictLowestEstimate)
			for _, c := range rng.Perm(len(vocab) * len(vocab))[:n] {
				choice := []int{c / len(vocab), c % len(vocab)}
				words := []string{vocab[choice[0]], vocab[choice[1]]}
				witness := xmltree.Dewey{1, uint32(1 + rng.Intn(3))}.AppendKey(nil)
				acc.add(strings.Join(words, "\x00"), words, choice, typ, 1, float64(1+rng.Intn(2)), 0, 1+rng.Intn(3), witness)
			}
			got, want := e.finalize(kws, acc), finalizeFullSort(e, kws, acc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d:\n got %v\nwant %v", n, k, got, want)
			}
		}
	}
}

// TestFinalizeWordsDoNotAliasTable: the returned words live in their
// own backing array, so a suggestion never pins (or sees) the
// accumulator table's slabs.
func TestFinalizeWordsDoNotAliasTable(t *testing.T) {
	e := paperEngine(Config{})
	kws := e.Keywords("tree icde")
	acc, _, err := e.scanKeywords(context.Background(), kws, 1, nil)
	if err != nil || acc == nil {
		t.Fatalf("scan: %v", err)
	}
	out := e.finalize(kws, acc)
	if len(out) == 0 {
		t.Fatal("no suggestions")
	}
	for _, a := range acc.all() {
		for i := range a.words {
			a.words[i] = "clobbered"
		}
	}
	for _, s := range out {
		if strings.Contains(s.Query(), "clobbered") {
			t.Fatalf("suggestion %q shares words with the table", s.Query())
		}
	}
}

// TestJoinedLessMatchesJoin: the allocation-free tie-break orders word
// lists exactly as their space-joined query strings compare, including
// words that are prefixes of a longer word ("a b" < "ab": ' ' < 'b'),
// empty words, and lists of different lengths.
func TestJoinedLessMatchesJoin(t *testing.T) {
	fixed := [][2][]string{
		{{"ab"}, {"a", "b"}},
		{{"a", "b"}, {"ab"}},
		{{"a"}, {"a", ""}},
		{{"a", "b"}, {"a", "b"}},
		{{}, {""}},
		{{"ab", "c"}, {"a", "bc"}},
	}
	check := func(a, b []string) {
		t.Helper()
		if got, want := joinedLess(a, b), strings.Join(a, " ") < strings.Join(b, " "); got != want {
			t.Fatalf("joinedLess(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
	for _, c := range fixed {
		check(c[0], c[1])
	}
	alphabet := []string{"", "a", "b", "ab", "ba", "a b", "aa"}
	rng := rand.New(rand.NewSource(5))
	list := func() []string {
		w := make([]string, rng.Intn(4))
		for i := range w {
			w[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return w
	}
	for i := 0; i < 20000; i++ {
		check(list(), list())
	}
	if rankBefore(1, []string{"z"}, 2, []string{"a"}) || !rankBefore(2, []string{"z"}, 1, []string{"a"}) {
		t.Fatal("rankBefore must order by descending score first")
	}
}
