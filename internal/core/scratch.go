package core

import (
	"sync"

	"xclean/internal/invindex"
	"xclean/internal/xmltree"
)

// scanScratch bundles every reusable buffer of one scan shard: merged
// lists, the per-shard result-type cache, the per-anchor occurrence
// maps, and the candidate-enumeration scratch. One query allocated all
// of these fresh (some once per anchor subtree); pooling them makes the
// steady-state scan nearly allocation-free. A scratch is owned by
// exactly one shard for the duration of one scan and returned to the
// pool when the shard finishes.
type scanScratch struct {
	lists  []*invindex.MergedList
	tokens []string
	// anchor holds the current subtree root, copied off the list head
	// it was derived from.
	anchor xmltree.Dewey
	// typeCache memoizes result-type inference per candidate key, and
	// interns the key: the string made on a candidate's first inference
	// is the one the accumulator table stores. It is cleared on release:
	// the pool is shared across engines, and a type cached against one
	// index is wrong for another.
	typeCache map[string]typedKey
	// occ[i] collects postings of keyword i's variants inside the
	// current anchor subtree, densely indexed by variant ordinal. Their
	// codes belong to lists[i] and live until it next moves — the next
	// anchor — which is as long as enumeration reads them.
	occ []occSet
	// present[i] lists the variant indices of keyword i observed in the
	// current subtree, sorted.
	present [][]int
	// groups caches the per-(keyword, variant, depth) entity groupings
	// of the current subtree; reset per anchor, retiring value slices to
	// free for reuse.
	groups map[groupKey][]groupEntry
	free   [][]groupEntry
	// keyArena holds the root keys of the current subtree's groupings;
	// every groupEntry.rootKey is a slice of it. resetGroups truncates
	// it with the groupings it serves.
	keyArena []byte
	cand     candScratch
}

// typedKey is one type-cache entry: the candidate's inferred result
// type and its interned key.
type typedKey struct {
	path xmltree.PathID
	key  string
}

// occSet is one keyword's per-anchor occurrence table: byVariant[v]
// lists the postings of variant v inside the current subtree, and
// touched lists the variants with at least one posting. Dense slice
// indexing replaces the map the scan previously rebuilt per anchor —
// variant ordinals are small and contiguous, and the touched list makes
// reset cost proportional to the postings actually collected, so the
// buffers stay warm across anchors and scans with no per-anchor
// hashing at all. Invariant: every byVariant entry not in touched has
// length 0.
type occSet struct {
	byVariant [][]invindex.Posting
	touched   []int
}

// size prepares the set for a keyword with nv variants. Entries beyond
// a previous scan's length are zero-length by the reset invariant.
func (o *occSet) size(nv int) {
	if cap(o.byVariant) < nv {
		b := make([][]invindex.Posting, nv)
		copy(b, o.byVariant)
		o.byVariant = b
	}
	o.byVariant = o.byVariant[:nv]
	o.touched = o.touched[:0]
}

// reset empties the set for the next anchor, truncating in place so
// posting buffers keep their capacity.
func (o *occSet) reset() {
	for _, v := range o.touched {
		o.byVariant[v] = o.byVariant[v][:0]
	}
	o.touched = o.touched[:0]
}

// add records one posting of variant v.
func (o *occSet) add(v int, p invindex.Posting) {
	s := o.byVariant[v]
	if len(s) == 0 {
		o.touched = append(o.touched, v)
	}
	o.byVariant[v] = append(s, p)
}

var scanPool = sync.Pool{New: func() interface{} {
	return &scanScratch{
		typeCache: make(map[string]typedKey),
		groups:    make(map[groupKey][]groupEntry),
	}
}}

// getScanScratch returns a scratch sized for nk keywords.
func getScanScratch(nk int) *scanScratch {
	s := scanPool.Get().(*scanScratch)
	if cap(s.lists) < nk {
		s.lists = make([]*invindex.MergedList, nk)
	}
	s.lists = s.lists[:nk]
	if cap(s.occ) < nk {
		occ := make([]occSet, nk)
		copy(occ, s.occ)
		s.occ = occ
	}
	s.occ = s.occ[:nk]
	if cap(s.present) < nk {
		s.present = make([][]int, nk)
	}
	s.present = s.present[:nk]
	s.cand.size(nk)
	return s
}

// release returns the scratch to the pool. Index-specific state (the
// type cache, merged-list cursors) is dropped; capacity-bearing buffers
// are kept warm. The occurrence tables go first: their codes alias the
// lists' storage, which Release hands to the next query.
func (s *scanScratch) release() {
	clear(s.typeCache)
	for i := range s.occ {
		s.occ[i].reset() // restore the all-empty invariant
	}
	for i, l := range s.lists {
		l.Release()
		s.lists[i] = nil
	}
	s.resetGroups()
	scanPool.Put(s)
}

// resetGroups empties the per-anchor grouping cache, retiring the
// value slices for reuse by newGroup and truncating the key arena.
func (s *scanScratch) resetGroups() {
	s.keyArena = s.keyArena[:0]
	if len(s.groups) == 0 {
		return
	}
	for _, g := range s.groups {
		if cap(g) > 0 {
			s.free = append(s.free, g[:0])
		}
	}
	clear(s.groups)
}

// newGroup returns an empty grouping slice, reusing a retired one when
// available.
func (s *scanScratch) newGroup() []groupEntry {
	if n := len(s.free); n > 0 {
		g := s.free[n-1]
		s.free = s.free[:n-1]
		return g
	}
	return nil
}

// size grows the candidate scratch to nk keywords.
func (c *candScratch) size(nk int) {
	if cap(c.choice) < nk {
		c.choice = make([]int, nk)
		c.words = make([]string, nk)
		c.counts = make([]int32, nk)
		c.odo = make([]int, nk)
		c.others = make([][]groupEntry, nk)
		c.pos = make([]int, nk)
	}
	c.choice = c.choice[:nk]
	c.words = c.words[:nk]
	c.counts = c.counts[:nk]
	c.odo = c.odo[:nk]
	if nk > 0 {
		c.others = c.others[:nk-1]
		c.pos = c.pos[:nk-1]
	}
}
