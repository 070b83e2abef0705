package invindex

import (
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// VocabView is the read surface of a corpus vocabulary: membership,
// collection frequencies, and the background unigram model p(w|B).
// tokenizer.Vocabulary implements it over heap maps; snapfile readers
// implement it by binary search over an mmap'd offset table. Prob must
// follow tokenizer.Vocabulary.Prob exactly ((count+1)/(total+size),
// epsilon for unknown terms) so scores agree to the last bit across
// backends.
type VocabView interface {
	Contains(w string) bool
	Count(w string) int64
	Prob(w string) float64
	Total() int64
	Size() int
}

// Source is the complete read surface the scoring engine
// (internal/core) and the public facade scan against. *Index
// implements it over heap maps; *snapfile.Reader implements it
// directly over an mmap'd snapshot, which is how a corpus serves
// without ever being materialized. Everything here must be safe for
// concurrent use.
type Source interface {
	// PathTable is the label-path interner of the corpus schema. It is
	// always a materialized table: the schema is tiny (Heaps' law on
	// label paths) and every hot path resolves IDs through it.
	PathTable() *xmltree.PathTable
	// Vocabulary is the corpus vocabulary / background model.
	Vocabulary() VocabView
	// VocabList returns all distinct indexed tokens, sorted.
	VocabList() []string
	// MergedListFor builds the Section V-C merged list over the
	// inverted lists of the given variant tokens.
	MergedListFor(tokens []string) *MergedList
	// TypeList returns the (path, f_p^w) list of tok sorted by path ID.
	TypeList(tok string) []TypeCount
	// PathDepth is the depth of label path p (resulttype.Source).
	PathDepth(p xmltree.PathID) int
	// SubtreeLenKey is |D(r)| keyed by Dewey.Key bytes (as built by
	// Dewey.AppendKey); the scan looks entities up from a reused key
	// buffer, so implementations must not retain or allocate on key.
	SubtreeLenKey(key []byte) int32
	// NodesWithPath is N_p, the entity count N of Eq. (8).
	NodesWithPath(p xmltree.PathID) int32
	// SubtreeLensByPath returns the subtree token counts of every node
	// of path p (order unspecified).
	SubtreeLensByPath(p xmltree.PathID) []int32
	// RootsByPath returns the Dewey keys of every node of path p.
	RootsByPath(p xmltree.PathID) []string
	// BigramCount is the adjacency count of the bigram extension.
	BigramCount(w1, w2 string) int64
	// DocFreq is df(w): the number of nodes whose direct text contains w.
	DocFreq(tok string) int
	NodeCount() int
	MaxDepth() int
	TotalTokens() int64
	// TokenizerOptions returns the options the corpus was indexed with.
	TokenizerOptions() tokenizer.Options
	// HasStoredText reports whether previews are available.
	HasStoredText() bool
	// SubtreeText renders the stored text under root (see
	// Index.SubtreeText).
	SubtreeText(root xmltree.Dewey, maxLen int) string
}

// PathTable returns the index's label-path table (Source).
func (ix *Index) PathTable() *xmltree.PathTable { return ix.Paths }

// Vocabulary returns the index's vocabulary (Source).
func (ix *Index) Vocabulary() VocabView { return ix.Vocab }
