// Package postings implements the compressed posting-list codec behind
// the inverted index of Section V-C. A posting is one (dewey, label
// path, tf) tuple — the paper's inverted-list entry — extended with the
// node's direct token count needed by the PY08 baseline.
//
// Lists are stored in document order and encoded in blocks:
//
//   - within a block, each Dewey code is delta-encoded against its
//     predecessor as (shared-prefix length, suffix components), which
//     exploits the long shared prefixes of document-ordered codes;
//   - all integers use unsigned varints;
//   - every block begins with a full (undeltaed) Dewey code, so blocks
//     decode independently and a skip table over block-first codes
//     supports SkipTo without touching earlier blocks — the on-disk
//     analogue of the MergedList skipping that Algorithm 1 relies on.
//
// The codec is used two ways: the index persistence format stores every
// list compressed, and Index.Compact keeps lists compressed in memory,
// trading per-query decode work for a several-fold smaller resident
// index (the AblationCompression benchmark quantifies both sides).
package postings

import (
	"encoding/binary"
	"fmt"

	"xclean/internal/xmltree"
)

// Posting is one inverted-list entry: token occurrence(s) in the direct
// text of one tree node. invindex.Posting aliases this type.
type Posting struct {
	Dewey xmltree.Dewey
	Path  xmltree.PathID
	TF    int32
	// NodeLen is the number of kept tokens in the node's direct text
	// (|t| in the PY08 tf·idf formula).
	NodeLen int32
}

// BlockSize is the number of postings per compression block. 128
// balances skip granularity against per-block header overhead.
const BlockSize = 128

// List is one immutable compressed posting list.
type List struct {
	data []byte // concatenated block payloads
	offs []int  // byte offset of each block in data
	// Block i's first Dewey code is skipComps[skipStart[i]:skipStart[i+1]]
	// (all codes concatenated; skipStart has one trailing entry).
	skipComps []uint32
	skipStart []int
	n         int
}

// Encode compresses a document-ordered posting list.
func Encode(ps []Posting) *List {
	l := &List{n: len(ps)}
	if len(ps) == 0 {
		return l
	}
	var prev xmltree.Dewey
	buf := make([]byte, binary.MaxVarintLen64)
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(buf, v)
		l.data = append(l.data, buf[:n]...)
	}
	for i, p := range ps {
		if i%BlockSize == 0 {
			l.offs = append(l.offs, len(l.data))
			l.skipStart = append(l.skipStart, len(l.skipComps))
			l.skipComps = append(l.skipComps, p.Dewey...)
			prev = nil
		}
		shared := sharedPrefix(prev, p.Dewey)
		putUvarint(uint64(shared))
		putUvarint(uint64(len(p.Dewey) - shared))
		for _, c := range p.Dewey[shared:] {
			putUvarint(uint64(c))
		}
		putUvarint(uint64(p.Path))
		putUvarint(uint64(p.TF))
		putUvarint(uint64(p.NodeLen))
		prev = p.Dewey
	}
	l.skipStart = append(l.skipStart, len(l.skipComps))
	return l
}

func sharedPrefix(a, b xmltree.Dewey) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Len is the number of postings in the list.
func (l *List) Len() int { return l.n }

// SizeBytes is the compressed payload size, excluding the in-memory
// skip table.
func (l *List) SizeBytes() int { return len(l.data) }

// blockFirst returns block i's first Dewey code (aliases internal
// storage; callers must not mutate).
func (l *List) blockFirst(i int) xmltree.Dewey {
	return xmltree.Dewey(l.skipComps[l.skipStart[i]:l.skipStart[i+1]])
}

func (l *List) blocks() int { return len(l.offs) }

// Decode expands the whole list. Every returned Dewey is an independent
// copy.
func (l *List) Decode() []Posting {
	out := make([]Posting, 0, l.n)
	it := l.Iter()
	for {
		p, ok := it.Head()
		if !ok {
			break
		}
		p.Dewey = p.Dewey.Clone()
		out = append(out, p)
		it.Advance()
	}
	return out
}

// Iter returns an iterator positioned at the first posting.
type Iterator struct {
	l     *List
	block int // current block index
	pos   int // byte position within data
	idx   int // posting index within the whole list
	cur   Posting
	curD  xmltree.Dewey // reusable buffer holding the current code
	ok    bool
}

// Iter returns a fresh iterator over the list.
func (l *List) Iter() *Iterator {
	it := &Iterator{l: l}
	if l.n > 0 {
		it.pos = 0
		it.decodeNext()
	}
	return it
}

// Reset repositions an existing iterator at the first posting of l,
// keeping its code buffer, so a pooled iterator walks list after list
// without allocating. Reset(nil) drops every reference to the previous
// list and leaves the iterator exhausted.
func (it *Iterator) Reset(l *List) {
	*it = Iterator{l: l, curD: it.curD[:0]}
	if l != nil && l.n > 0 {
		it.decodeNext()
	}
}

// Head returns the current posting without advancing. The posting's
// Dewey aliases an internal buffer that the next Advance/SkipTo call
// overwrites; callers needing to retain it must Clone.
func (it *Iterator) Head() (Posting, bool) { return it.cur, it.ok }

// Advance moves to the next posting.
func (it *Iterator) Advance() {
	if !it.ok {
		return
	}
	it.idx++
	if it.idx >= it.l.n {
		it.ok = false
		return
	}
	if it.idx%BlockSize == 0 {
		it.block++
		it.curD = it.curD[:0] // block starts undeltaed
	}
	it.decodeNext()
}

// decodeNext decodes the posting at it.pos, deltaed against it.curD.
// The wire format carries no checksum, so corrupt payloads are
// possible; any structural violation (truncated varint, shared prefix
// longer than the previous code) fail-stops the iterator instead of
// panicking — the list simply appears exhausted.
func (it *Iterator) decodeNext() {
	data := it.l.data[it.pos:]
	read := 0
	bad := false
	uv := func() uint64 {
		v, n := binary.Uvarint(data[read:])
		if n <= 0 {
			bad = true
			return 0
		}
		read += n
		return v
	}
	shared := int(uv())
	suffix := int(uv())
	if bad || shared < 0 || shared > len(it.curD) {
		it.ok = false
		return
	}
	it.curD = it.curD[:shared]
	for i := 0; i < suffix; i++ {
		c := uint32(uv())
		if bad {
			it.ok = false
			return
		}
		it.curD = append(it.curD, c)
	}
	it.cur = Posting{
		Dewey:   it.curD,
		Path:    xmltree.PathID(uv()),
		TF:      int32(uv()),
		NodeLen: int32(uv()),
	}
	if bad {
		it.ok = false
		return
	}
	it.pos += read
	it.ok = true
}

// SkipTo advances the iterator to the first posting whose Dewey code is
// ≥ d (in document order), never moving backward. It binary-searches
// the block skip table, then scans within the landing block.
func (it *Iterator) SkipTo(d xmltree.Dewey) (Posting, bool) {
	if !it.ok || it.cur.Dewey.Compare(d) >= 0 {
		return it.cur, it.ok
	}
	// Find the last block whose first code is ≤ d; only jump forward.
	lo, hi := it.block, it.l.blocks()-1
	target := it.block
	for lo <= hi {
		mid := (lo + hi) / 2
		if it.l.blockFirst(mid).Compare(d) <= 0 {
			target = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if target > it.block {
		it.block = target
		it.idx = target * BlockSize
		it.pos = it.l.offs[target]
		it.curD = it.curD[:0]
		it.decodeNext()
	}
	for it.ok && it.cur.Dewey.Compare(d) < 0 {
		it.Advance()
	}
	return it.cur, it.ok
}

// Wire format of one list:
//
//	uvarint n            postings
//	uvarint blocks       block count
//	per block: uvarint payload length
//	payloads             concatenated block bytes
//
// Block-first codes are reconstructed from the payloads at load time.

// AppendTo serializes the list, appending to buf.
func (l *List) AppendTo(buf []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	put(uint64(l.n))
	put(uint64(l.blocks()))
	for i := range l.offs {
		end := len(l.data)
		if i+1 < len(l.offs) {
			end = l.offs[i+1]
		}
		put(uint64(end - l.offs[i]))
	}
	return append(buf, l.data...)
}

// DecodeList parses one serialized list from the front of buf and
// returns it along with the number of bytes consumed.
func DecodeList(buf []byte) (*List, int, error) {
	read := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(buf[read:])
		if n <= 0 {
			return 0, fmt.Errorf("postings: truncated list header")
		}
		read += n
		return v, nil
	}
	n, err := uv()
	if err != nil {
		return nil, 0, err
	}
	blocks, err := uv()
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		if blocks != 0 {
			return nil, 0, fmt.Errorf("postings: empty list with %d blocks", blocks)
		}
		return &List{}, read, nil
	}
	if want := (n + BlockSize - 1) / BlockSize; blocks != want {
		return nil, 0, fmt.Errorf("postings: %d postings need %d blocks, header says %d", n, want, blocks)
	}
	lens := make([]int, blocks)
	total := 0
	for i := range lens {
		v, err := uv()
		if err != nil {
			return nil, 0, err
		}
		lens[i] = int(v)
		total += int(v)
	}
	if read+total > len(buf) {
		return nil, 0, fmt.Errorf("postings: truncated list payload (need %d bytes, have %d)", total, len(buf)-read)
	}
	l := &List{
		n:    int(n),
		data: buf[read : read+total],
	}
	off := 0
	for _, bl := range lens {
		if err := l.indexBlock(off); err != nil {
			return nil, 0, err
		}
		off += bl
	}
	l.skipStart = append(l.skipStart, len(l.skipComps))
	return l, read + total, nil
}

// indexBlock records block metadata by decoding the first posting's
// Dewey code at the given payload offset.
func (l *List) indexBlock(off int) error {
	l.offs = append(l.offs, off)
	data := l.data[off:]
	read := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(data[read:])
		if n <= 0 {
			return 0, false
		}
		read += n
		return v, true
	}
	shared, ok1 := uv()
	suffix, ok2 := uv()
	if !ok1 || !ok2 || shared != 0 {
		return fmt.Errorf("postings: corrupt block at offset %d", off)
	}
	l.skipStart = append(l.skipStart, len(l.skipComps))
	for i := 0; i < int(suffix); i++ {
		c, ok := uv()
		if !ok {
			return fmt.Errorf("postings: corrupt block dewey at offset %d", off)
		}
		l.skipComps = append(l.skipComps, uint32(c))
	}
	return nil
}
