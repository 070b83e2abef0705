// Package fastss implements the FastSS approximate string matching
// index used by XClean to generate the ε-variant sets var_ε(q) of query
// keywords (Section V-A of the paper).
//
// The idea: if ed(s,t) ≤ ε, then deleting at most ε characters from
// each of s and t can produce a common string, so the ε-deletion
// neighborhoods of s and t intersect. The index maps every deletion
// variant of every vocabulary word to the words that produce it; a
// query generates its own deletion neighborhood, probes the index, and
// verifies candidates with a banded edit-distance computation.
//
// For long tokens the deletion neighborhood grows as C(l,ε), so the
// index optionally partitions long words into two halves and indexes
// each half with an error budget of ⌊ε/2⌋ (pigeonhole: if the word is
// within ε errors, one half is within ⌊ε/2⌋ errors of the aligned
// query prefix/suffix). The paper calls this the "partitioned version"
// with tuning parameter l_p.
package fastss

import (
	"sort"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"xclean/internal/editdist"
)

// Config tunes index construction.
type Config struct {
	// MaxErrors is ε, the maximum edit distance matched. Must be ≥ 0.
	MaxErrors int
	// PartitionLen is l_p: words strictly longer than this are indexed
	// in partitioned form. 0 disables partitioning.
	PartitionLen int
}

// Match is one vocabulary word within the error threshold of a query.
type Match struct {
	Word string
	Dist int
}

type bucketKey struct {
	part    int8 // 0 = whole word, 1 = first half, 2 = second half
	variant string
}

// Index is an ε-deletion-neighborhood index over a vocabulary. Words
// can be added at any time (incremental vocabulary growth); Add is not
// safe to call concurrently with Search. To grow the vocabulary while
// the index keeps serving Search traffic, extend a Clone and swap it
// in (the copy-on-write contract slca.Engine.Refresh relies on).
type Index struct {
	cfg     Config
	words   []string
	ids     map[string]int32
	buckets map[bucketKey][]int32
	// halfLens[i] is the rune length of the first half of partitioned
	// word i, or 0 if word i is indexed whole.
	halfLens []int32
	// memo interns completed Search results per query word. Keyword
	// neighborhoods repeat heavily across queries (the same misspellings
	// recur, and every engine Refresh re-probes its working set), so a
	// hit skips both the deletion-neighborhood enumeration and the
	// banded verification. The memo is bounded (memoCap) and is replaced
	// wholesale on Add, which by the Index contract never races with
	// Search.
	memo *searchMemo
}

// memoCap bounds the per-index Search memo: at most this many distinct
// query words are interned; further misses are computed but not stored.
const memoCap = 4096

type searchMemo struct {
	n atomic.Int32
	m sync.Map // query word -> []Match
}

// New returns an empty index with the given configuration.
func New(cfg Config) *Index {
	if cfg.MaxErrors < 0 {
		cfg.MaxErrors = 0
	}
	return &Index{
		cfg:     cfg,
		ids:     make(map[string]int32),
		buckets: make(map[bucketKey][]int32),
		memo:    &searchMemo{},
	}
}

// Build constructs an index over words. Duplicate words are indexed
// once.
func Build(words []string, cfg Config) *Index {
	ix := New(cfg)
	for _, w := range words {
		ix.Add(w)
	}
	return ix
}

// Clone returns a copy that can be extended with Add without mutating
// any state visible to the receiver — the copy-on-write step of
// slca.Engine.Refresh. The maps are copied; the word and bucket slices
// are shared but capped at their current length, so an Add on the
// clone always reallocates instead of writing into shared backing
// arrays.
// Cloning costs O(vocabulary + buckets) map copies, far cheaper than
// rebuilding the deletion neighborhoods from scratch.
func (ix *Index) Clone() *Index {
	c := &Index{
		cfg:      ix.cfg,
		words:    ix.words[:len(ix.words):len(ix.words)],
		ids:      make(map[string]int32, len(ix.ids)+1),
		buckets:  make(map[bucketKey][]int32, len(ix.buckets)+1),
		halfLens: ix.halfLens[:len(ix.halfLens):len(ix.halfLens)],
		memo:     &searchMemo{},
	}
	for w, id := range ix.ids {
		c.ids[w] = id
	}
	for k, lst := range ix.buckets {
		c.buckets[k] = lst[:len(lst):len(lst)]
	}
	return c
}

// Add indexes one vocabulary word; already-indexed words are ignored.
func (ix *Index) Add(word string) {
	if _, ok := ix.ids[word]; ok {
		return
	}
	if ix.memo == nil {
		ix.memo = &searchMemo{}
	} else if ix.memo.n.Load() != 0 {
		// Interned results predate this word; drop them. During bulk
		// Build the memo is empty, so no churn.
		ix.memo = &searchMemo{}
	}
	id := int32(len(ix.words))
	ix.ids[word] = id
	ix.words = append(ix.words, word)
	runes := []rune(word)
	if ix.cfg.PartitionLen > 0 && len(runes) > ix.cfg.PartitionLen && ix.cfg.MaxErrors > 0 {
		h := (len(runes) + 1) / 2
		ix.halfLens = append(ix.halfLens, int32(h))
		halfErr := ix.cfg.MaxErrors / 2
		ix.addVariants(1, string(runes[:h]), halfErr, id)
		ix.addVariants(2, string(runes[h:]), halfErr, id)
		return
	}
	ix.halfLens = append(ix.halfLens, 0)
	ix.addVariants(0, word, ix.cfg.MaxErrors, id)
}

func (ix *Index) addVariants(part int8, s string, maxDel int, id int32) {
	forEachDeletion(s, maxDel, func(v string) {
		key := bucketKey{part, v}
		lst := ix.buckets[key]
		if n := len(lst); n > 0 && lst[n-1] == id {
			return // same word, another variant path
		}
		ix.buckets[key] = append(lst, id)
	})
}

// nbhScratch holds the reusable state of one deletion-neighborhood
// enumeration: the dedup set, the breadth-first frontiers, and the
// rune/byte work buffers. Pooled so steady-state enumeration allocates
// only the distinct variant strings themselves.
type nbhScratch struct {
	seen     map[string]struct{}
	frontier []string
	next     []string
	runes    []rune
	buf      []byte
}

var nbhPool = sync.Pool{
	New: func() any { return &nbhScratch{seen: make(map[string]struct{}, 64)} },
}

// forEachDeletion invokes fn once per distinct string obtainable from s
// by deleting at most maxDel runes (including s itself). Enumeration is
// breadth-first by deletion count; duplicates arising from different
// deletion orders are visited once. The byte-buffer dedup probe
// (string(sc.buf) inside a map index) does not allocate, so only novel
// variants materialize a string.
func forEachDeletion(s string, maxDel int, fn func(v string)) {
	fn(s)
	if maxDel <= 0 || s == "" {
		return
	}
	sc := nbhPool.Get().(*nbhScratch)
	sc.seen[s] = struct{}{}
	frontier := append(sc.frontier[:0], s)
	next := sc.next[:0]
	for level := 0; level < maxDel && len(frontier) > 0; level++ {
		next = next[:0]
		for _, t := range frontier {
			r := sc.runes[:0]
			for _, c := range t {
				r = append(r, c)
			}
			sc.runes = r
			for i := range r {
				buf := sc.buf[:0]
				for j, c := range r {
					if j != i {
						buf = utf8.AppendRune(buf, c)
					}
				}
				sc.buf = buf
				if _, ok := sc.seen[string(buf)]; ok {
					continue
				}
				v := string(buf)
				sc.seen[v] = struct{}{}
				fn(v)
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
	}
	for k := range sc.seen {
		delete(sc.seen, k)
	}
	// frontier/next may have been swapped an odd number of times; store
	// both so their capacity survives either way.
	sc.frontier, sc.next = frontier[:0], next[:0]
	nbhPool.Put(sc)
}

// deletionNeighborhood materializes the ≤maxDel deletion neighborhood
// of s as a set (the reference form used by tests; the hot paths stream
// through forEachDeletion instead).
func deletionNeighborhood(s string, maxDel int) map[string]struct{} {
	out := make(map[string]struct{})
	forEachDeletion(s, maxDel, func(v string) { out[v] = struct{}{} })
	return out
}

// Search returns every vocabulary word within ε edit errors of q,
// sorted by (distance, word). This is var_ε(q) of the paper; note it
// includes q itself when q is a vocabulary term. Results may be served
// from the per-index memo and must not be mutated by callers.
func (ix *Index) Search(q string) []Match {
	memo := ix.memo
	if memo != nil {
		if v, ok := memo.m.Load(q); ok {
			return v.([]Match)
		}
	}
	matches := ix.search(q)
	if memo != nil && memo.n.Load() < memoCap {
		if _, loaded := memo.m.LoadOrStore(q, matches); !loaded {
			memo.n.Add(1)
		}
	}
	return matches
}

// search is the uncached Search body.
func (ix *Index) search(q string) []Match {
	eps := ix.cfg.MaxErrors
	cand := make(map[int32]struct{})

	// Whole-word probes.
	forEachDeletion(q, eps, func(v string) {
		for _, id := range ix.buckets[bucketKey{0, v}] {
			cand[id] = struct{}{}
		}
	})

	// Partitioned probes: enumerate prefixes (for first halves) and
	// suffixes (for second halves) of q in the alignment window, then
	// their ⌊ε/2⌋-deletion variants.
	if ix.cfg.PartitionLen > 0 && eps > 0 {
		halfErr := eps / 2
		runes := []rune(q)
		probe := func(part int8, piece string) {
			forEachDeletion(piece, halfErr, func(v string) {
				for _, id := range ix.buckets[bucketKey{part, v}] {
					cand[id] = struct{}{}
				}
			})
		}
		// Any indexed word w has |w| ∈ [|q|-ε, |q|+ε] if it matches, and
		// first-half length h = ⌈|w|/2⌉. The aligned query prefix has
		// length within ⌊ε/2⌋ of h. Enumerate that window of prefix
		// lengths (and symmetrically suffix lengths).
		minH := (len(runes)-eps+1)/2 - halfErr
		maxH := (len(runes)+eps+1)/2 + halfErr
		if minH < 0 {
			minH = 0
		}
		for p := minH; p <= maxH && p <= len(runes); p++ {
			probe(1, string(runes[:p]))
		}
		// Second halves have length |w| - ⌈|w|/2⌉ = ⌊|w|/2⌋.
		minS := (len(runes)-eps)/2 - halfErr
		maxS := (len(runes)+eps)/2 + halfErr
		if minS < 0 {
			minS = 0
		}
		for s := minS; s <= maxS && s <= len(runes); s++ {
			probe(2, string(runes[len(runes)-s:]))
		}
	}

	var matches []Match
	for id := range cand {
		w := ix.words[id]
		if d, ok := editdist.WithinK(q, w, eps); ok {
			matches = append(matches, Match{Word: w, Dist: d})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Dist != matches[j].Dist {
			return matches[i].Dist < matches[j].Dist
		}
		return matches[i].Word < matches[j].Word
	})
	return matches
}

// BruteForce scans the whole vocabulary with the banded verifier. It is
// the reference implementation used in tests and the variant-generation
// ablation benchmark.
func BruteForce(words []string, q string, eps int) []Match {
	var matches []Match
	seen := make(map[string]bool)
	for _, w := range words {
		if seen[w] {
			continue
		}
		seen[w] = true
		if d, ok := editdist.WithinK(q, w, eps); ok {
			matches = append(matches, Match{Word: w, Dist: d})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Dist != matches[j].Dist {
			return matches[i].Dist < matches[j].Dist
		}
		return matches[i].Word < matches[j].Word
	})
	return matches
}

// Size is the number of indexed words.
func (ix *Index) Size() int { return len(ix.words) }

// Buckets is the number of deletion-variant buckets (an index-size
// diagnostic; the paper discusses the space/time trade-off of l_p).
func (ix *Index) Buckets() int { return len(ix.buckets) }
