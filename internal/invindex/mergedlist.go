package invindex

import (
	"container/heap"
	"sort"
	"sync"

	"xclean/internal/postings"
	"xclean/internal/xmltree"
)

// Entry is one element surfaced by a MergedList: a posting together
// with the variant token it belongs to.
//
// Lifetime: the Dewey code of an Entry may alias a buffer its
// MergedList reuses (streamed members decode in place). An Entry
// returned by CurPos, Next or SkipTo is valid until the next Next,
// SkipTo or CollectSubtree on that same MergedList; the entries handed
// to one CollectSubtree callback all stay valid together until the next
// such moving call on that list. CurPos and Exhausted never invalidate
// anything, and other lists moving never does. Clone the code to keep
// it longer. One copy every scan owes: a SkipTo target or subtree root
// derived from a head (anchor.Truncate(d)) aliases the cursor the call
// is about to advance, so it must be copied before any list moves.
type Entry struct {
	Posting
	Token string
	// TokenIdx is the position of Token in the variant list the
	// MergedList was built from.
	TokenIdx int
}

// listCursor walks one member inverted list. Implementations exist for
// raw posting slices and for compressed lists (streaming decode with
// block skipping).
type listCursor interface {
	exhausted() bool
	// head returns the current posting; only valid while !exhausted().
	// The returned pointer (and its Dewey) is valid until the next
	// advance/skipTo call on this cursor.
	head() *Posting
	advance()
	// skipTo advances to the first posting ≥ d in document order.
	// linear selects the scanning ablation mode where supported.
	skipTo(d xmltree.Dewey, linear bool)
}

// sliceCursor walks a raw in-memory posting slice.
type sliceCursor struct {
	list []Posting
	pos  int
}

func (c *sliceCursor) exhausted() bool { return c.pos >= len(c.list) }

func (c *sliceCursor) head() *Posting { return &c.list[c.pos] }

func (c *sliceCursor) advance() { c.pos++ }

// skipTo advances the cursor to the first posting whose Dewey code is
// ≥ d. With linear=false it uses exponential (galloping) search
// followed by binary search, giving O(log gap); with linear=true it
// scans, which is the ablation baseline.
func (c *sliceCursor) skipTo(d xmltree.Dewey, linear bool) {
	if linear {
		for !c.exhausted() && c.head().Dewey.Compare(d) < 0 {
			c.pos++
		}
		return
	}
	if c.exhausted() || c.head().Dewey.Compare(d) >= 0 {
		return
	}
	// Exponential search for an upper bound.
	step := 1
	lo := c.pos
	hi := c.pos + step
	for hi < len(c.list) && c.list[hi].Dewey.Compare(d) < 0 {
		lo = hi
		step *= 2
		hi = c.pos + step
	}
	if hi > len(c.list) {
		hi = len(c.list)
	}
	// Binary search within (lo, hi].
	c.pos = lo + sort.Search(hi-lo, func(i int) bool {
		return c.list[lo+i].Dewey.Compare(d) >= 0
	})
}

// compCursor streams a compressed posting list. Skipping uses the
// codec's block skip table; the linear flag is ignored because blocks
// must be decoded sequentially regardless. The head's Dewey aliases the
// iterator's code buffer — nothing is copied per posting; MergedList
// upholds the Entry lifetime on top of that.
type compCursor struct {
	it  postings.Iterator
	cur Posting
	ok  bool
}

// reset points the cursor at the start of l, reusing the iterator and
// its code buffer; reset(nil) drops every reference to the old list.
func (c *compCursor) reset(l *postings.List) {
	c.it.Reset(l)
	c.cur, c.ok = c.it.Head()
}

func (c *compCursor) exhausted() bool { return !c.ok }

func (c *compCursor) head() *Posting { return &c.cur }

func (c *compCursor) advance() {
	c.it.Advance()
	c.cur, c.ok = c.it.Head()
}

func (c *compCursor) skipTo(d xmltree.Dewey, linear bool) {
	if c.ok && c.cur.Dewey.Compare(d) < 0 {
		c.cur, c.ok = c.it.SkipTo(d)
	}
}

// member pairs a cursor with its variant identity inside a MergedList.
type member struct {
	listCursor
	token    string
	tokenIdx int
	// linear is SetLinearSkip's flag.
	linear bool
}

// MergedList presents the inverted lists of all variants of one query
// keyword as a single list sorted in document order (Section V-C). It
// is implemented as a min-heap over the member list heads. The codes it
// hands out follow the lifetime stated on Entry.
type MergedList struct {
	h cursorHeap
	// stream is the pooled storage behind a list whose members stream
	// compressed lists; nil for slice-backed lists.
	stream *streamStore
}

// streamStore is everything one streamed MergedList needs — the list
// itself, its members, their cursors with the iterators' code buffers,
// and the copies that give streamed entries their lifetime — so that a
// released list's next user allocates nothing.
type streamStore struct {
	list    MergedList
	members []member
	cursors []compCursor // len == cap; cursors[k] serves members[k]
	// codes holds the code Next last returned, or every code of the
	// current CollectSubtree: the cursor overwrites its buffer as it
	// advances, the copies outlive that until the next moving call.
	codes []uint32
}

var streamPool = sync.Pool{New: func() interface{} { return new(streamStore) }}

// NewStreamedMergedList builds a merged list whose members stream the
// compressed lists that list returns for tokens (nil, empty and
// unreadable lists are skipped), straight off their payloads: a
// compacted index's, or a snapshot reader's mapped block bytes. list is
// only called before NewStreamedMergedList returns. The storage comes
// from a pool; Release hands it back.
func NewStreamedMergedList(tokens []string, list func(tok string) *postings.List) *MergedList {
	s := streamPool.Get().(*streamStore)
	if n := len(tokens); cap(s.members) < n {
		s.members = make([]member, 0, n)
		cursors := make([]compCursor, n)
		copy(cursors, s.cursors) // keep the warm code buffers
		s.cursors = cursors
		s.list.h = make(cursorHeap, 0, n)
	}
	m := &s.list
	m.stream = s
	for i, tok := range tokens {
		l := list(tok)
		if l == nil {
			continue
		}
		k := len(s.members)
		c := &s.cursors[k]
		if c.reset(l); c.exhausted() {
			c.reset(nil)
			continue
		}
		s.members = append(s.members, member{listCursor: c, token: tok, tokenIdx: i})
		m.h = append(m.h, &s.members[k])
	}
	heap.Init(&m.h)
	return m
}

// Release returns a streamed list's storage to the pool, after
// dropping every reference it holds to posting payloads (a pooled
// cursor must never be what touches a snapshot mapping after its reader
// is gone) and to the tokens. The list, and every Entry it produced,
// must not be used afterwards. Releasing is optional — an unreleased
// list is simply collected — and a no-op on slice-backed lists.
func (m *MergedList) Release() {
	s := m.stream
	if s == nil {
		return
	}
	for i := range s.members {
		s.cursors[i].reset(nil)
	}
	clear(s.members)
	s.members = s.members[:0]
	*m = MergedList{h: m.h[:0]} // h only ever points into s.members
	streamPool.Put(s)
}

// NewMergedList builds a merged list over the postings of the given
// variant tokens. lists[i] must be the inverted list of tokens[i], in
// document order.
func NewMergedList(tokens []string, lists [][]Posting) *MergedList {
	return newSliceMergedList(tokens, func(i int, _ string) []Posting { return lists[i] })
}

// MergedListFor builds the merged list for the given variant tokens
// directly from the index storage: raw slices normally, streaming
// compressed cursors on a compacted index (no per-query decode of whole
// lists).
func (ix *Index) MergedListFor(tokens []string) *MergedList {
	if ix.comp != nil {
		return NewStreamedMergedList(tokens, func(tok string) *postings.List { return ix.comp[tok] })
	}
	return newSliceMergedList(tokens, func(_ int, tok string) []Posting { return ix.postings[tok] })
}

// newSliceMergedList builds a slice-backed merged list over list(i,
// tokens[i]) for every token, skipping empty lists. Members and cursors
// are carved from one exactly sized slice each, so a list costs a fixed
// handful of allocations however many variants it merges — and nothing
// for the variants absent from this index, which in a segment stack
// (stack-global variant sets) are most of them.
func newSliceMergedList(tokens []string, list func(i int, tok string) []Posting) *MergedList {
	n := 0
	for i, tok := range tokens {
		if len(list(i, tok)) > 0 {
			n++
		}
	}
	m := &MergedList{h: make(cursorHeap, 0, n)}
	members := make([]member, 0, n) // never regrown: h points into it
	cursors := make([]sliceCursor, 0, n)
	for i, tok := range tokens {
		pl := list(i, tok)
		if len(pl) == 0 {
			continue
		}
		cursors = append(cursors, sliceCursor{list: pl})
		members = append(members, member{listCursor: &cursors[len(cursors)-1], token: tok, tokenIdx: i})
		m.h = append(m.h, &members[len(members)-1])
	}
	heap.Init(&m.h)
	return m
}

// SetLinearSkip switches SkipTo to linear scanning (for the skipping
// ablation benchmark). It affects raw-slice cursors only.
func (m *MergedList) SetLinearSkip(v bool) {
	for _, c := range m.h {
		c.linear = v
	}
}

// CurPos returns the head of the merged list without consuming it.
func (m *MergedList) CurPos() (Entry, bool) {
	if len(m.h) == 0 {
		return Entry{}, false
	}
	c := m.h[0]
	return Entry{Posting: *c.head(), Token: c.token, TokenIdx: c.tokenIdx}, true
}

// Next returns the head and removes it from the merged list.
func (m *MergedList) Next() (Entry, bool) {
	if len(m.h) == 0 {
		return Entry{}, false
	}
	c := m.h[0]
	e := Entry{Posting: *c.head(), Token: c.token, TokenIdx: c.tokenIdx}
	if s := m.stream; s != nil {
		// The advance below overwrites the buffer e.Dewey aliases.
		s.codes = append(s.codes[:0], e.Dewey...)
		e.Dewey = s.codes
	}
	c.advance()
	if c.exhausted() {
		heap.Pop(&m.h)
	} else {
		heap.Fix(&m.h, 0)
	}
	return e, true
}

// SkipTo discards every entry whose Dewey code is smaller than d and
// returns the new head (the first entry ≥ d), if any.
func (m *MergedList) SkipTo(d xmltree.Dewey) (Entry, bool) {
	// Advance each member list independently, dropping exhausted ones,
	// then rebuild the heap, as described in Section V-C.
	kept := m.h[:0]
	for _, c := range m.h {
		c.skipTo(d, c.linear)
		if !c.exhausted() {
			kept = append(kept, c)
		}
	}
	m.h = kept
	heap.Init(&m.h)
	return m.CurPos()
}

// CollectSubtree discards every entry before g, then consumes all
// entries inside the subtree rooted at g (g itself included), calling
// fn for each. Entries are delivered grouped by member list, in
// document order within each list.
//
// Only cursors whose heads lie before or inside the subtree are
// touched: the min-heap root is repeatedly skipped or drained in bulk,
// so member lists already positioned beyond the subtree cost nothing —
// the skipping behaviour Section V-C relies on.
func (m *MergedList) CollectSubtree(g xmltree.Dewey, fn func(Entry)) {
	s := m.stream
	if s != nil {
		s.codes = s.codes[:0]
	}
	for len(m.h) > 0 {
		c := m.h[0]
		head := c.head().Dewey
		switch {
		case head.Compare(g) < 0:
			c.skipTo(g, c.linear)
		case !g.AncestorOrSelf(head):
			// The earliest head is already past the subtree; so is
			// everything else.
			return
		case s == nil:
			for !c.exhausted() && g.AncestorOrSelf(c.head().Dewey) {
				fn(Entry{Posting: *c.head(), Token: c.token, TokenIdx: c.tokenIdx})
				c.advance()
			}
		default:
			// Streamed member: each code is copied into the list's arena
			// before the cursor advances over it, so the whole subtree's
			// entries stay valid together. Growing the arena leaves the
			// earlier copies intact in the array they were made in.
			for !c.exhausted() && g.AncestorOrSelf(c.head().Dewey) {
				e := Entry{Posting: *c.head(), Token: c.token, TokenIdx: c.tokenIdx}
				from := len(s.codes)
				s.codes = append(s.codes, e.Dewey...)
				e.Dewey = s.codes[from:len(s.codes):len(s.codes)]
				fn(e)
				c.advance()
			}
		}
		if c.exhausted() {
			heap.Pop(&m.h)
		} else {
			heap.Fix(&m.h, 0)
		}
	}
}

// Exhausted reports whether the merged list is empty.
func (m *MergedList) Exhausted() bool { return len(m.h) == 0 }

type cursorHeap []*member

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	return h[i].head().Dewey.Compare(h[j].head().Dewey) < 0
}
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(*member)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}
