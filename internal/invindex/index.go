// Package invindex builds the disk-shaped index structures of Section
// V of the XClean paper over an xmltree.Tree:
//
//   - an inverted index mapping each token to the list of tree nodes
//     that directly contain it, in document order; each entry carries
//     the node's Dewey code, its label path, the token frequency, and
//     the node's direct token count (tuple (dewey, lp, tf) of Sec. V-C,
//     extended with the length needed by the PY08 baseline);
//   - per-token type lists: for every token w and label path p, the
//     number f_p^w of nodes of type p whose subtree contains w (the
//     index of Sec. V-B used by FindResultType);
//   - subtree token counts |D(r)| for every node (the virtual-document
//     lengths of Eq. (9));
//   - node counts per label path (the N of Eq. (8));
//   - the corpus vocabulary / background language model.
package invindex

import (
	"sort"
	"strings"

	"xclean/internal/postings"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// Posting is one inverted-list entry: token occurrence(s) in the direct
// text of one tree node. It is the postings codec's type, so lists move
// between raw and compressed representations without copying schemas.
type Posting = postings.Posting

// TypeCount is one entry of a token's type list: f_p^w for path Path.
type TypeCount struct {
	Path xmltree.PathID
	F    int32
}

// Index is the complete in-memory index over one XML tree. Posting
// lists live either raw (postings) or compressed (comp, after Compact);
// exactly one of the two maps is non-nil.
type Index struct {
	Paths *xmltree.PathTable
	Vocab *tokenizer.Vocabulary

	postings   map[string][]Posting
	comp       map[string]*postings.List // non-nil after Compact
	typeLists  map[string][]TypeCount
	subtreeLen map[string]int32 // Dewey.Key() -> tokens in subtree
	pathNodes  map[xmltree.PathID]int32
	pathLens   map[xmltree.PathID][]int32  // lazy: subtree lens per path
	pathRoots  map[xmltree.PathID][]string // Dewey keys of nodes per path
	bigrams    map[string]int64            // "w1\x00w2" -> adjacency count
	// storedText maps Dewey keys to node text when built with
	// BuildStored; storedKeys lists the same keys in document order.
	storedText map[string]string
	storedKeys []string
	// nextRootChild caches the next free sibling ordinal under the
	// root for AddDocument (0 = not yet derived).
	nextRootChild uint32
	nodeCount     int
	maxDepth      int
	totalTok      int64
	opts          tokenizer.Options
}

// Build indexes the tree with the given tokenizer options.
func Build(t *xmltree.Tree, opts tokenizer.Options) *Index {
	return build(t, opts, false)
}

// BuildStored is Build plus stored node text, enabling result previews
// (SubtreeText) at the cost of keeping one copy of the document text
// in memory.
func BuildStored(t *xmltree.Tree, opts tokenizer.Options) *Index {
	return build(t, opts, true)
}

func build(t *xmltree.Tree, opts tokenizer.Options, store bool) *Index {
	ix := &Index{
		Paths:      t.Paths,
		Vocab:      tokenizer.NewVocabulary(),
		postings:   make(map[string][]Posting),
		typeLists:  make(map[string][]TypeCount),
		subtreeLen: make(map[string]int32),
		pathNodes:  make(map[xmltree.PathID]int32),
		pathLens:   make(map[xmltree.PathID][]int32),
		pathRoots:  make(map[xmltree.PathID][]string),
		bigrams:    make(map[string]int64),
		opts:       opts,
	}
	if store {
		ix.storedText = make(map[string]string)
	}
	if t.Root != nil {
		ix.indexNode(t.Root)
	}
	ix.buildTypeLists()
	return ix
}

// indexNode walks the subtree rooted at n and returns its token count.
func (ix *Index) indexNode(n *xmltree.Node) int32 {
	ix.nodeCount++
	ix.pathNodes[n.Path]++
	if d := n.Dewey.Depth(); d > ix.maxDepth {
		ix.maxDepth = d
	}

	if ix.storedText != nil && n.Text != "" {
		// Recording happens before the children recurse: the walk is
		// pre-order = document order, so storedKeys stays sorted
		// without an explicit sort.
		k := n.Dewey.Key()
		ix.storedText[k] = n.Text
		ix.storedKeys = append(ix.storedKeys, k)
	}

	var direct int32
	if n.Text != "" {
		toks := ix.opts.Tokenize(n.Text)
		direct = int32(len(toks))
		if direct > 0 {
			tf := make(map[string]int32, len(toks))
			order := make([]string, 0, len(toks))
			for _, tok := range toks {
				if tf[tok] == 0 {
					order = append(order, tok)
				}
				tf[tok]++
			}
			for _, tok := range order {
				ix.postings[tok] = append(ix.postings[tok], Posting{
					Dewey:   n.Dewey,
					Path:    n.Path,
					TF:      tf[tok],
					NodeLen: direct,
				})
				ix.Vocab.Add(tok, int64(tf[tok]))
			}
			for i := 1; i < len(toks); i++ {
				ix.bigrams[toks[i-1]+"\x00"+toks[i]]++
			}
			ix.totalTok += int64(direct)
		}
	}

	total := direct
	for _, c := range n.Children {
		total += ix.indexNode(c)
	}
	key := n.Dewey.Key()
	ix.subtreeLen[key] = total
	ix.pathLens[n.Path] = append(ix.pathLens[n.Path], total)
	ix.pathRoots[n.Path] = append(ix.pathRoots[n.Path], key)
	return total
}

// buildTypeLists derives f_p^w for every token and every ancestor path,
// counting each (token, ancestor node) pair exactly once. Postings are
// in document order, so an ancestor at depth k is "new" exactly when
// the current posting's Dewey prefix of length k differs from the
// previous posting's.
func (ix *Index) buildTypeLists() {
	for tok, plist := range ix.postings {
		counts := make(map[xmltree.PathID]int32)
		var prev xmltree.Dewey
		for _, p := range plist {
			div := divergeDepth(prev, p.Dewey)
			for k := div + 1; k <= p.Dewey.Depth(); k++ {
				counts[ix.Paths.Ancestor(p.Path, k)]++
			}
			prev = p.Dewey
		}
		tl := make([]TypeCount, 0, len(counts))
		for path, f := range counts {
			tl = append(tl, TypeCount{Path: path, F: f})
		}
		sort.Slice(tl, func(i, j int) bool { return tl[i].Path < tl[j].Path })
		ix.typeLists[tok] = tl
	}
}

// divergeDepth returns the length of the longest common prefix of a
// and b.
func divergeDepth(a, b xmltree.Dewey) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// Postings returns the inverted list of tok in document order (nil for
// unknown tokens). Callers must not mutate the returned slice. On a
// compacted index every call decodes the list afresh; hot paths should
// use MergedListFor, which streams compressed lists without
// materializing them.
func (ix *Index) Postings(tok string) []Posting {
	if ix.comp != nil {
		l, ok := ix.comp[tok]
		if !ok {
			return nil
		}
		return l.Decode()
	}
	return ix.postings[tok]
}

// Compact re-encodes every posting list with the block-compressed
// postings codec and releases the raw slices. Query results are
// unchanged; the resident set shrinks several-fold while MergedList
// reads pay a streaming decode (the AblationCompression benchmark
// quantifies the trade). Compact is not safe to call concurrently with
// queries.
func (ix *Index) Compact() {
	if ix.comp != nil {
		return
	}
	ix.comp = make(map[string]*postings.List, len(ix.postings))
	for tok, pl := range ix.postings {
		ix.comp[tok] = postings.Encode(pl)
	}
	ix.postings = nil
}

// Compacted reports whether posting lists are stored compressed.
func (ix *Index) Compacted() bool { return ix.comp != nil }

// PostingsBytes estimates the posting-list storage footprint in bytes:
// the compressed payload size when compacted, otherwise the raw slice
// size (4 bytes per Dewey component plus the fixed posting fields).
func (ix *Index) PostingsBytes() int64 {
	var total int64
	if ix.comp != nil {
		for _, l := range ix.comp {
			total += int64(l.SizeBytes())
		}
		return total
	}
	for _, pl := range ix.postings {
		for _, p := range pl {
			total += int64(4*len(p.Dewey)) + 12
		}
	}
	return total
}

// TypeList returns the (path, f_p^w) list of tok sorted by path ID.
func (ix *Index) TypeList(tok string) []TypeCount { return ix.typeLists[tok] }

// SubtreeLen is |D(r)|: the number of kept tokens in the subtree rooted
// at the node with the given Dewey code. Unknown codes yield 0.
func (ix *Index) SubtreeLen(d xmltree.Dewey) int32 { return ix.subtreeLen[d.Key()] }

// SubtreeLenKey is SubtreeLen keyed by Dewey.Key bytes.
func (ix *Index) SubtreeLenKey(key []byte) int32 { return ix.subtreeLen[string(key)] } // no alloc: map lookup

// NodesWithPath is N_p: the number of nodes whose label path is p —
// the entity count N of Eq. (8) once a result type is fixed.
func (ix *Index) NodesWithPath(p xmltree.PathID) int32 { return ix.pathNodes[p] }

// SubtreeLensByPath returns the subtree token counts of every node of
// path p (in reverse document order). Used by the exact-scoring
// ablation, which needs the length distribution of all entities of a
// type. Order is unspecified. Callers must not mutate the returned
// slice.
func (ix *Index) SubtreeLensByPath(p xmltree.PathID) []int32 {
	return ix.pathLens[p]
}

// RootsByPath returns the Dewey keys of every node whose label path is
// p — the entity roots once a result type is fixed. Used by the
// non-uniform entity priors of Eq. (8). Callers must not mutate the
// returned slice.
func (ix *Index) RootsByPath(p xmltree.PathID) []string {
	return ix.pathRoots[p]
}

// HasStoredText reports whether the index was built with BuildStored.
func (ix *Index) HasStoredText() bool { return ix.storedText != nil }

// SubtreeText concatenates the stored text of the subtree rooted at
// root, in document order, truncated to at most maxLen runes (maxLen
// ≤ 0 means unlimited). It returns "" on indexes built without stored
// text — use BuildStored to enable previews.
func (ix *Index) SubtreeText(root xmltree.Dewey, maxLen int) string {
	if ix.storedText == nil {
		return ""
	}
	rk := root.Key()
	// First stored key ≥ rk; document order on keys is byte order.
	i := sort.SearchStrings(ix.storedKeys, rk)
	var b strings.Builder
	runes := 0
	for ; i < len(ix.storedKeys); i++ {
		k := ix.storedKeys[i]
		if len(k) < len(rk) || k[:len(rk)] != rk {
			break // left the subtree
		}
		text := ix.storedText[k]
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		for _, r := range text {
			if maxLen > 0 && runes >= maxLen {
				b.WriteString("…")
				return b.String()
			}
			b.WriteRune(r)
			runes++
		}
	}
	return b.String()
}

// BigramCount is the number of times w2 directly follows w1 within a
// node's text anywhere in the corpus — the adjacency statistics of the
// bigram language-model extension.
func (ix *Index) BigramCount(w1, w2 string) int64 {
	return ix.bigrams[w1+"\x00"+w2]
}

// BigramTableSize is the number of distinct adjacent token pairs.
func (ix *Index) BigramTableSize() int { return len(ix.bigrams) }

// NodeCount is the number of tree nodes (the PY08 baseline's N when
// every element is treated as a document).
func (ix *Index) NodeCount() int { return ix.nodeCount }

// MaxDepth is the depth of the deepest node.
func (ix *Index) MaxDepth() int { return ix.maxDepth }

// TotalTokens is the corpus length in kept tokens.
func (ix *Index) TotalTokens() int64 { return ix.totalTok }

// DocFreq is df(w): the number of nodes whose direct text contains w.
func (ix *Index) DocFreq(tok string) int {
	if ix.comp != nil {
		if l, ok := ix.comp[tok]; ok {
			return l.Len()
		}
		return 0
	}
	return len(ix.postings[tok])
}

// Tokens iterates over all indexed tokens in unspecified order.
func (ix *Index) Tokens(fn func(tok string)) {
	if ix.comp != nil {
		for tok := range ix.comp {
			fn(tok)
		}
		return
	}
	for tok := range ix.postings {
		fn(tok)
	}
}

// TokenizerOptions returns the options the index was built with;
// queries must be tokenized identically.
func (ix *Index) TokenizerOptions() tokenizer.Options { return ix.opts }

// VocabList returns all distinct indexed tokens, sorted.
func (ix *Index) VocabList() []string {
	out := make([]string, 0, len(ix.postings)+len(ix.comp))
	ix.Tokens(func(tok string) { out = append(out, tok) })
	sort.Strings(out)
	return out
}
