package snapfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"xclean/internal/invindex"
	"xclean/internal/postings"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

func blockSize() int { return postings.BlockSize }

// OpenOptions tunes Open.
type OpenOptions struct {
	// NoMmap forces the portability fallback: the file is read into a
	// heap buffer instead of being memory-mapped. Queries behave
	// identically; warm-start and resident set scale with the file.
	NoMmap bool
}

// Reader serves one snapshot segment directly off its on-disk bytes.
// It implements invindex.Source, so internal/core scans against it
// exactly as against a heap index: the vocabulary and node tables are
// binary-searched in place, posting lists stream from mmap'd block
// payloads through the codec's skip tables, and nothing except the
// (tiny) path table is materialized at open. All methods are safe for
// concurrent use.
//
// Unmapping: Close unmaps/frees the underlying buffer and must only be
// called once no query can still touch the reader (a query racing a
// munmap would fault). Readers dropped without Close unmap via a
// finalizer, which is what makes catalog idle-eviction safe: eviction
// just drops the reference, and the address space is reclaimed after
// the last in-flight query's engine becomes unreachable.
type Reader struct {
	data  []byte
	mm    *mapping // nil under NoMmap
	path  string
	flags uint32

	// secs[id] is the payload of section id, a slice into data; bit id
	// of have is set when the file carries it. Sections a future writer
	// adds under other ids are bounds-checked at open and checksummed
	// by Verify, which walks the file's own table, but never indexed.
	secs [numSections][]byte
	have uint32

	// meta scalars.
	nodeCount  int
	maxDepth   int
	totalTok   int64
	vocabTotal int64
	tokens     int
	pathCount  int
	subCount   int
	biCount    int
	storedN    int
	opts       tokenizer.Options

	paths *xmltree.PathTable

	// memo holds one *tokenEntry per vocabulary token that a query has
	// touched (string → *tokenEntry); see token.
	memo sync.Map

	closeOnce sync.Once
}

// Open maps the snapshot at path and validates its structure: magic,
// section table CRC, footer (end magic + recorded file length, which
// catches truncation without reading the body), section bounds, and
// the checksums of the materialized meta and paths sections. The work
// is O(schema), independent of corpus size; use Verify for a full
// checksum pass.
func Open(path string, opts OpenOptions) (*Reader, error) {
	var (
		data []byte
		mm   *mapping
		err  error
	)
	if opts.NoMmap {
		data, err = os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("snapfile: %w", err)
		}
	} else {
		mm, err = mapFile(path)
		if err != nil {
			return nil, fmt.Errorf("snapfile: %w", err)
		}
		data = mm.data
	}
	r := &Reader{data: data, mm: mm, path: path}
	if err := r.parse(); err != nil {
		r.Close()
		return nil, err
	}
	if mm != nil {
		// Reclaim the mapping even if the owner forgets Close (catalog
		// eviction deliberately relies on this; see type comment).
		runtime.SetFinalizer(r, func(r *Reader) { r.unmap() })
	}
	return r, nil
}

func (r *Reader) parse() error {
	d := r.data
	if len(d) < headerLen+footTailLen {
		return corruptf("%s: file too short (%d bytes)", r.path, len(d))
	}
	if string(d[:8]) != magic {
		return corruptf("%s: bad magic %q", r.path, d[:8])
	}
	count := int(getU32(d[8:]))
	r.flags = getU32(d[12:])
	tableCRC := getU32(d[16:])
	if count <= 0 || count > 1024 {
		return corruptf("%s: implausible section count %d", r.path, count)
	}
	tableEnd := headerLen + secEntryLen*count
	footLen := footEntryLen*count + footTailLen
	if tableEnd+footLen > len(d) {
		return corruptf("%s: truncated (sections do not fit)", r.path)
	}
	table := d[headerLen:tableEnd]
	if crcOf(table) != tableCRC {
		return corruptf("%s: section table checksum mismatch", r.path)
	}
	if string(d[len(d)-8:]) != endMagic {
		return corruptf("%s: truncated (end marker missing)", r.path)
	}
	if got := getU64(d[len(d)-16:]); got != uint64(len(d)) {
		return corruptf("%s: truncated (footer says %d bytes, have %d)", r.path, got, len(d))
	}
	footOff := len(d) - footLen
	var unknown map[uint32]bool // ids beyond this build's, seen so far
	for i := 0; i < count; i++ {
		e := table[i*secEntryLen:]
		id := getU32(e[0:])
		off := getU64(e[8:])
		length := getU64(e[16:])
		if off < uint64(tableEnd) || off+length < off || off+length > uint64(footOff) {
			return corruptf("%s: section %d out of bounds", r.path, id)
		}
		if getU32(d[footOff+i*footEntryLen:]) != id {
			return corruptf("%s: footer/table section order mismatch", r.path)
		}
		if id >= numSections {
			if unknown[id] {
				return corruptf("%s: duplicate section %d", r.path, id)
			}
			if unknown == nil {
				unknown = make(map[uint32]bool)
			}
			unknown[id] = true
			continue
		}
		if r.has(id) {
			return corruptf("%s: duplicate section %d", r.path, id)
		}
		r.have |= 1 << id
		r.secs[id] = d[off : off+length]
	}
	// Verify and parse the two sections materialized at open.
	for _, id := range []uint32{secMeta, secPaths} {
		if err := r.verifySection(id); err != nil {
			return err
		}
	}
	if err := r.parseMeta(); err != nil {
		return err
	}
	return r.parsePaths()
}

// has reports whether the file carries section id.
func (r *Reader) has(id uint32) bool { return id < numSections && r.have&(1<<id) != 0 }

// verifyEntry checks the payload of section-table entry i against its
// footer CRC. Open has bounds-checked every entry and matched the
// footer's order to the table's.
func (r *Reader) verifyEntry(i int) error {
	d := r.data
	count := int(getU32(d[8:]))
	e := d[headerLen+i*secEntryLen:]
	off, length := getU64(e[8:]), getU64(e[16:])
	foot := d[len(d)-(footEntryLen*count+footTailLen)+i*footEntryLen:]
	if crcOf(d[off:off+length]) != getU32(foot[4:]) {
		return corruptf("%s: section %d checksum mismatch", r.path, getU32(e))
	}
	return nil
}

// verifySection checks one section's footer CRC.
func (r *Reader) verifySection(id uint32) error {
	count := int(getU32(r.data[8:]))
	for i := 0; i < count; i++ {
		if getU32(r.data[headerLen+i*secEntryLen:]) == id {
			return r.verifyEntry(i)
		}
	}
	return corruptf("%s: section %d missing", r.path, id)
}

// Verify runs a full checksum pass over every section in the file's
// table, including ones this build does not know. It reads the whole
// file (sequential, page-cache friendly) and is the integrity check
// the catalog runs in the background after a warm-start. It reads
// record and payload bytes directly, never through the token memo.
func (r *Reader) Verify() error {
	count := int(getU32(r.data[8:]))
	for i := 0; i < count; i++ {
		if err := r.verifyEntry(i); err != nil {
			return err
		}
	}
	return nil
}

func (r *Reader) parseMeta() error {
	m := r.secs[secMeta]
	read := 0
	uv := func() uint64 {
		if read < 0 {
			return 0 // poisoned by an earlier short read
		}
		v, n := binary.Uvarint(m[read:])
		if n <= 0 {
			read = -1 << 30 // poison: a later uv keeps failing
			return 0
		}
		read += n
		return v
	}
	ver := uv()
	if read < 0 {
		return corruptf("%s: truncated meta section", r.path)
	}
	if ver != formatVersion {
		return fmt.Errorf("snapfile: %s: unsupported snapshot version %d (want %d)", r.path, ver, formatVersion)
	}
	if bs := uv(); bs != uint64(blockSize()) {
		return fmt.Errorf("snapfile: %s: snapshot block size %d differs from build's %d", r.path, bs, blockSize())
	}
	r.nodeCount = int(uv())
	r.maxDepth = int(uv())
	r.totalTok = int64(uv())
	r.opts.MinLength = int(uv())
	tokFlags := uv()
	r.opts.KeepNumbers = tokFlags&1 != 0
	r.opts.KeepStopwords = tokFlags&2 != 0
	r.vocabTotal = int64(uv())
	r.tokens = int(uv())
	r.pathCount = int(uv())
	r.subCount = int(uv())
	r.biCount = int(uv())
	r.storedN = int(uv())
	if read < 0 {
		return corruptf("%s: truncated meta section", r.path)
	}
	// Structural cross-checks: every fixed-width section must match the
	// counts exactly, and offset-table sections must at least hold
	// their offset arrays. This is what makes all later record slicing
	// bounds-safe without per-access error paths.
	checks := []struct {
		id   uint32
		min  uint64
		want int64 // exact length; -1 = minimum only
	}{
		{secVocabRec, 0, int64(vocabRecLen * r.tokens)},
		{secSubKeys, uint64(8 * (r.subCount + 1)), -1},
		{secSubLens, 0, int64(4 * r.subCount)},
		{secPathStats, 0, int64(8*(r.pathCount+1) + 4*r.pathCount)},
		{secBigramKeys, uint64(8 * (r.biCount + 1)), -1},
		{secBigramVals, 0, int64(8 * r.biCount)},
	}
	if r.flags&flagStoredText != 0 {
		checks = append(checks,
			struct {
				id   uint32
				min  uint64
				want int64
			}{secStoredKeys, uint64(8 * (r.storedN + 1)), -1},
			struct {
				id   uint32
				min  uint64
				want int64
			}{secStoredTexts, uint64(8 * (r.storedN + 1)), -1},
		)
	}
	for _, c := range checks {
		if !r.has(c.id) {
			return corruptf("%s: section %d missing", r.path, c.id)
		}
		sec := r.secs[c.id]
		if c.want >= 0 && int64(len(sec)) != c.want {
			return corruptf("%s: section %d is %d bytes, want %d", r.path, c.id, len(sec), c.want)
		}
		if c.want < 0 && uint64(len(sec)) < c.min {
			return corruptf("%s: section %d is %d bytes, want ≥ %d", r.path, c.id, len(sec), c.min)
		}
	}
	for _, id := range []uint32{secVocabNames, secPostings, secSkips, secTypes, secPathEnts} {
		if !r.has(id) {
			return corruptf("%s: section %d missing", r.path, id)
		}
	}
	return nil
}

func (r *Reader) parsePaths() error {
	sec := r.secs[secPaths]
	parents := make([]int32, 0, r.pathCount)
	labels := make([]string, 0, r.pathCount)
	read := 0
	for i := 0; i < r.pathCount; i++ {
		p, n := binary.Varint(sec[read:])
		if n <= 0 {
			return corruptf("%s: truncated path table", r.path)
		}
		read += n
		ll, n := binary.Uvarint(sec[read:])
		if n <= 0 || ll > uint64(len(sec)-read-n) {
			return corruptf("%s: truncated path table", r.path)
		}
		read += n
		parents = append(parents, int32(p))
		labels = append(labels, string(sec[read:read+int(ll)]))
		read += int(ll)
	}
	if read != len(sec) {
		return corruptf("%s: %d trailing path-table bytes", r.path, len(sec)-read)
	}
	pt, err := xmltree.ImportPathTable(parents, labels)
	if err != nil {
		return corruptf("%s: %v", r.path, err)
	}
	r.paths = pt
	return nil
}

// Close unmaps the snapshot. The caller must guarantee no concurrent
// or later use of the reader or of any engine built over it.
func (r *Reader) Close() error {
	r.closeOnce.Do(func() {
		runtime.SetFinalizer(r, nil)
		r.unmap()
	})
	return nil
}

func (r *Reader) unmap() {
	if r.mm != nil {
		r.mm.close()
	}
}

// Path returns the file the reader was opened from.
func (r *Reader) Path() string { return r.path }

// SizeBytes is the snapshot file size.
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }

// Mmapped reports whether the reader serves off a memory mapping
// (false under the NoMmap portability fallback).
func (r *Reader) Mmapped() bool { return r.mm != nil }

// ── vocabulary records ───────────────────────────────────────────────

type vocabRec struct {
	nameOff, postOff, skipOff, typeOff uint64
	count                              int64
	nameLen, postLen, skipLen, typeLen uint32
	df                                 uint32
}

func (r *Reader) rec(i int) vocabRec {
	b := r.secs[secVocabRec][i*vocabRecLen:]
	return vocabRec{
		nameOff: getU64(b[0:]),
		postOff: getU64(b[8:]),
		skipOff: getU64(b[16:]),
		typeOff: getU64(b[24:]),
		count:   int64(getU64(b[32:])),
		nameLen: getU32(b[40:]),
		postLen: getU32(b[44:]),
		skipLen: getU32(b[48:]),
		typeLen: getU32(b[52:]),
		df:      getU32(b[56:]),
	}
}

// sliceOf bounds-checks one record-driven range into a section; a
// violating range (corrupt record bytes) yields nil rather than a
// panic, and the caller degrades to "token absent".
func (r *Reader) sliceOf(id uint32, off uint64, length uint32) []byte {
	sec := r.secs[id]
	if off > uint64(len(sec)) || uint64(length) > uint64(len(sec))-off {
		return nil
	}
	return sec[off : off+uint64(length)]
}

// tokenName reads only the two name fields of record i.
func (r *Reader) tokenName(i int) []byte {
	b := r.secs[secVocabRec][i*vocabRecLen:]
	return r.sliceOf(secVocabNames, getU64(b[0:]), getU32(b[40:]))
}

// findToken binary-searches the sorted vocabulary; returns -1 when
// absent. Names are compared in place: a string(bytes) conversion that
// only feeds a comparison neither copies nor allocates.
func (r *Reader) findToken(tok string) int {
	i := sort.Search(r.tokens, func(i int) bool { return string(r.tokenName(i)) >= tok })
	if i < r.tokens && string(r.tokenName(i)) == tok {
		return i
	}
	return -1
}

// list rebuilds the compressed posting list of record i over the
// mmap'd payload — O(blocks), no payload page faults. Every range is
// bounds-checked and the skip blob fully validated; nil means corrupt.
func (r *Reader) list(i int) *postings.List {
	rec := r.rec(i)
	payload := r.sliceOf(secPostings, rec.postOff, rec.postLen)
	meta := r.sliceOf(secSkips, rec.skipOff, rec.skipLen)
	if meta == nil || (payload == nil && rec.postLen > 0) {
		return nil
	}
	l, err := postings.ListOverPayload(payload, meta)
	if err != nil {
		return nil
	}
	return l
}

// typeList decodes the type list of record i (nil when corrupt).
func (r *Reader) typeList(i int) []invindex.TypeCount {
	rec := r.rec(i)
	return decodeTypeList(r.sliceOf(secTypes, rec.typeOff, rec.typeLen))
}

// tokenEntry is what the memo keeps for one vocabulary token: the two
// statistics scoring reads per word, the posting list validated and
// built once over the mapped payload, and the type list decoded on
// first use. Entries are immutable once published (types behind its
// Once) and shared by concurrent queries.
type tokenEntry struct {
	idx   int // vocabulary record index
	count int64
	df    int
	list  *postings.List

	typesOnce sync.Once
	types     []invindex.TypeCount
}

// token resolves tok for every per-token accessor. A token that is
// present and whose posting list passes validation is served from the
// memo: scoring asks for the same few words thousands of times per
// query, and unmemoised each answer is a binary search over the mapped
// records and each scan a re-validation of the skip blob. Only such
// hits are ever stored, so
// the memo holds at most one entry per vocabulary token however many
// garbage tokens untrusted queries probe. For a present token whose
// record or skip blob is corrupt, e is nil and i its record index: the
// scalar accessors still answer from the record, list accessors treat
// it as absent, and the next call searches again. Absent: nil, -1.
func (r *Reader) token(tok string) (e *tokenEntry, i int) {
	if v, ok := r.memo.Load(tok); ok {
		e = v.(*tokenEntry)
		return e, e.idx
	}
	i = r.findToken(tok)
	if i < 0 {
		return nil, -1
	}
	l := r.list(i)
	if l == nil {
		return nil, i
	}
	rec := r.rec(i)
	// The key is cloned: tok may be a substring of a caller's buffer.
	v, _ := r.memo.LoadOrStore(strings.Clone(tok), &tokenEntry{idx: i, count: rec.count, df: int(rec.df), list: l})
	return v.(*tokenEntry), i
}

// count is the collection frequency of tok and whether it is present.
func (r *Reader) count(tok string) (int64, bool) {
	e, i := r.token(tok)
	switch {
	case e != nil:
		return e.count, true
	case i >= 0:
		return r.rec(i).count, true
	}
	return 0, false
}

// ── invindex.Source ──────────────────────────────────────────────────

// PathTable returns the materialized label-path table.
func (r *Reader) PathTable() *xmltree.PathTable { return r.paths }

// PathDepth is the depth of label path p.
func (r *Reader) PathDepth(p xmltree.PathID) int { return r.paths.Depth(p) }

// Vocabulary returns the binary-searched vocabulary view.
func (r *Reader) Vocabulary() invindex.VocabView { return (*vocabView)(r) }

// vocabView adapts the record table to invindex.VocabView.
type vocabView Reader

func (v *vocabView) r() *Reader { return (*Reader)(v) }

func (v *vocabView) Contains(w string) bool {
	_, ok := v.r().count(w)
	return ok
}

func (v *vocabView) Count(w string) int64 {
	n, _ := v.r().count(w)
	return n
}

func (v *vocabView) Total() int64 { return v.r().vocabTotal }

func (v *vocabView) Size() int { return v.r().tokens }

// Prob mirrors tokenizer.Vocabulary.Prob operation-for-operation so
// snapshot-backed scores match heap scores to the last bit.
func (v *vocabView) Prob(w string) float64 {
	r := v.r()
	denom := float64(r.vocabTotal) + float64(r.tokens)
	if denom == 0 {
		return 0
	}
	n, ok := r.count(w)
	if !ok {
		return 1 / denom
	}
	return (float64(n) + 1) / denom
}

// VocabList materializes the sorted token list (engine construction
// builds the FastSS neighborhood index over it; O(vocabulary), which
// by Heaps' law grows far slower than the corpus).
func (r *Reader) VocabList() []string {
	out := make([]string, r.tokens)
	for i := range out {
		out[i] = string(r.tokenName(i))
	}
	return out
}

// MergedListFor builds the Section V-C merged list over mmap-backed
// compressed cursors drawn from invindex's pool; see
// (*invindex.MergedList).Release.
func (r *Reader) MergedListFor(tokens []string) *invindex.MergedList {
	return invindex.NewStreamedMergedList(tokens, r.postingList)
}

// postingList is the memoised posting list of tok, nil when tok is
// absent or its list unreadable.
func (r *Reader) postingList(tok string) *postings.List {
	if e, _ := r.token(tok); e != nil {
		return e.list
	}
	return nil
}

// DocFreq is df(w).
func (r *Reader) DocFreq(tok string) int {
	e, i := r.token(tok)
	switch {
	case e != nil:
		return e.df
	case i >= 0:
		return int(r.rec(i).df)
	}
	return 0
}

// TypeList returns the (path, f_p^w) list of tok, decoding it from the
// type-blob section on first use and memoizing it.
func (r *Reader) TypeList(tok string) []invindex.TypeCount {
	e, i := r.token(tok)
	switch {
	case e != nil:
		e.typesOnce.Do(func() { e.types = r.typeList(e.idx) })
		return e.types
	case i >= 0:
		return r.typeList(i)
	}
	return nil
}

func decodeTypeList(blob []byte) []invindex.TypeCount {
	read := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(blob[read:])
		if n <= 0 {
			return 0, false
		}
		read += n
		return v, true
	}
	n, ok := uv()
	if !ok || n > uint64(len(blob)) { // ≥1 byte per entry
		return nil
	}
	out := make([]invindex.TypeCount, 0, n)
	path := int64(-1)
	for j := uint64(0); j < n; j++ {
		delta, ok1 := uv()
		f, ok2 := uv()
		if !ok1 || !ok2 || delta == 0 {
			return nil
		}
		path += int64(delta)
		out = append(out, invindex.TypeCount{Path: xmltree.PathID(path), F: int32(f)})
	}
	if read != len(blob) {
		return nil
	}
	return out
}

// ── subtree table ────────────────────────────────────────────────────

// heapEntry returns entry i of an offset-table section laid out by
// heapWithOffsets; nil on any bounds violation.
func (r *Reader) heapEntry(id uint32, n, i int) []byte {
	sec := r.secs[id]
	base := 8 * (n + 1)
	lo := getU64(sec[8*i:])
	hi := getU64(sec[8*(i+1):])
	// base ≤ len(sec) is guaranteed by the open-time size check, so
	// len(sec)-base cannot underflow; comparing hi against it directly
	// avoids base+hi overflowing on corrupt offsets.
	if lo > hi || hi > uint64(len(sec)-base) {
		return nil
	}
	return sec[uint64(base)+lo : uint64(base)+hi]
}

// searchHeap binary-searches a sorted offset-table section of n
// entries and returns the first index whose entry is ≥ key, comparing
// in place like findToken.
func (r *Reader) searchHeap(id uint32, n int, key string) int {
	return sort.Search(n, func(i int) bool { return string(r.heapEntry(id, n, i)) >= key })
}

// subKey returns node key i.
func (r *Reader) subKey(i int) []byte { return r.heapEntry(secSubKeys, r.subCount, i) }

func (r *Reader) subLenAt(i int) int32 {
	return int32(getU32(r.secs[secSubLens][4*i:]))
}

// SubtreeLenKey is |D(r)| keyed by Dewey.Key bytes.
func (r *Reader) SubtreeLenKey(key []byte) int32 {
	i := sort.Search(r.subCount, func(i int) bool { return bytes.Compare(r.subKey(i), key) >= 0 })
	if i < r.subCount && bytes.Equal(r.subKey(i), key) {
		return r.subLenAt(i)
	}
	return 0
}

// ── per-path statistics ──────────────────────────────────────────────

// NodesWithPath is N_p.
func (r *Reader) NodesWithPath(p xmltree.PathID) int32 {
	if int(p) >= r.pathCount {
		return 0
	}
	stats := r.secs[secPathStats]
	return int32(getU32(stats[8*(r.pathCount+1)+4*int(p):]))
}

// entRange returns the entity-index range of path p in secPathEnts.
func (r *Reader) entRange(p xmltree.PathID) (lo, hi int, ok bool) {
	if int(p) >= r.pathCount {
		return 0, 0, false
	}
	stats := r.secs[secPathStats]
	l := getU64(stats[8*int(p):])
	h := getU64(stats[8*(int(p)+1):])
	ents := r.secs[secPathEnts]
	if l > h || h > uint64(len(ents))/4 {
		return 0, 0, false
	}
	return int(l), int(h), true
}

func (r *Reader) entIdx(i int) int {
	return int(getU32(r.secs[secPathEnts][4*i:]))
}

// SubtreeLensByPath returns the subtree token counts of every node of
// path p. The slice is materialized per call; only the non-uniform
// prior construction and the exact-scoring ablation read it.
func (r *Reader) SubtreeLensByPath(p xmltree.PathID) []int32 {
	lo, hi, ok := r.entRange(p)
	if !ok || lo == hi {
		return nil
	}
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if j := r.entIdx(i); j < r.subCount {
			out = append(out, r.subLenAt(j))
		}
	}
	return out
}

// RootsByPath returns the Dewey keys of every node of path p.
func (r *Reader) RootsByPath(p xmltree.PathID) []string {
	lo, hi, ok := r.entRange(p)
	if !ok || lo == hi {
		return nil
	}
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if j := r.entIdx(i); j < r.subCount {
			out = append(out, string(r.subKey(j)))
		}
	}
	return out
}

// ── bigrams ──────────────────────────────────────────────────────────

// BigramCount is the adjacency count of "w1 w2".
func (r *Reader) BigramCount(w1, w2 string) int64 {
	i := sort.Search(r.biCount, func(i int) bool {
		return cmpBigramKey(r.heapEntry(secBigramKeys, r.biCount, i), w1, w2) >= 0
	})
	if i < r.biCount && cmpBigramKey(r.heapEntry(secBigramKeys, r.biCount, i), w1, w2) == 0 {
		return int64(getU64(r.secs[secBigramVals][8*i:]))
	}
	return 0
}

// cmpBigramKey compares a stored "w1\x00w2" key with the pair (w1, w2)
// without building the probe key.
func cmpBigramKey(k []byte, w1, w2 string) int {
	n := len(w1)
	if len(k) <= n {
		// k is no longer than w1 alone, so it can at best be a proper
		// prefix of the probe key.
		if string(k) > w1[:len(k)] {
			return 1
		}
		return -1
	}
	switch {
	case string(k[:n]) < w1:
		return -1
	case string(k[:n]) > w1 || k[n] != 0:
		return 1
	case string(k[n+1:]) < w2:
		return -1
	case string(k[n+1:]) > w2:
		return 1
	}
	return 0
}

// BigramTableSize is the number of distinct adjacent token pairs.
func (r *Reader) BigramTableSize() int { return r.biCount }

// ── scalars ──────────────────────────────────────────────────────────

// NodeCount is the number of tree nodes.
func (r *Reader) NodeCount() int { return r.nodeCount }

// MaxDepth is the depth of the deepest node.
func (r *Reader) MaxDepth() int { return r.maxDepth }

// TotalTokens is the corpus length in kept tokens.
func (r *Reader) TotalTokens() int64 { return r.totalTok }

// TokenizerOptions returns the indexing tokenizer options.
func (r *Reader) TokenizerOptions() tokenizer.Options { return r.opts }

// ── stored text ──────────────────────────────────────────────────────

// HasStoredText reports whether the snapshot carries preview text.
func (r *Reader) HasStoredText() bool { return r.flags&flagStoredText != 0 }

// SubtreeText mirrors invindex.Index.SubtreeText over the mmap'd
// stored-text tables.
func (r *Reader) SubtreeText(root xmltree.Dewey, maxLen int) string {
	if !r.HasStoredText() {
		return ""
	}
	rk := root.Key()
	var b strings.Builder
	runes := 0
	for i := r.searchHeap(secStoredKeys, r.storedN, rk); i < r.storedN; i++ {
		k := r.heapEntry(secStoredKeys, r.storedN, i)
		if len(k) < len(rk) || string(k[:len(rk)]) != rk {
			break // left the subtree
		}
		text := r.heapEntry(secStoredTexts, r.storedN, i)
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		for _, rn := range string(text) {
			if maxLen > 0 && runes >= maxLen {
				b.WriteString("…")
				return b.String()
			}
			b.WriteRune(rn)
			runes++
		}
	}
	return b.String()
}

// ── materialization ──────────────────────────────────────────────────

// Materialize decodes the whole snapshot into a heap index — the
// escape hatch for operations that need mutable structures (live
// writes, entity sharding, legacy SLCA semantics). It is O(corpus) in
// time and memory, exactly what the mmap path avoids for reads. It
// walks the records by index and leaves the token memo alone: one live
// write on a snapshot-backed engine must not pin the whole vocabulary.
func (r *Reader) Materialize() (*invindex.Index, error) {
	t := invindex.Tables{
		NodeCount: r.nodeCount,
		MaxDepth:  r.maxDepth,
		TotalTok:  r.totalTok,
		Opts:      r.opts,
	}
	t.PathParents, t.PathLabels = r.paths.Export()
	t.Tokens = r.VocabList()
	t.Counts = make([]int64, r.tokens)
	t.Lists = make([]*postings.List, r.tokens)
	t.TypeLists = make([][]invindex.TypeCount, r.tokens)
	for i, tok := range t.Tokens {
		rec := r.rec(i)
		t.Counts[i] = rec.count
		l := r.list(i)
		if l == nil {
			return nil, corruptf("%s: token %q: unreadable posting list", r.path, tok)
		}
		if l.Len() != int(rec.df) {
			return nil, corruptf("%s: token %q: list length %d != df %d", r.path, tok, l.Len(), rec.df)
		}
		// Copy payload bytes out of the mapping so the index outlives
		// the reader.
		t.Lists[i] = postings.Encode(l.Decode())
		t.TypeLists[i] = r.typeList(i)
	}
	t.SubtreeKeys = make([]string, r.subCount)
	t.SubtreeLens = make([]int32, r.subCount)
	for i := 0; i < r.subCount; i++ {
		t.SubtreeKeys[i] = string(r.subKey(i))
		t.SubtreeLens[i] = r.subLenAt(i)
	}
	t.PathNodes = make([]int32, r.pathCount)
	t.PathEnts = make([][]int32, r.pathCount)
	for p := 0; p < r.pathCount; p++ {
		t.PathNodes[p] = r.NodesWithPath(xmltree.PathID(p))
		lo, hi, ok := r.entRange(xmltree.PathID(p))
		if !ok {
			return nil, corruptf("%s: path %d: bad entity range", r.path, p)
		}
		if lo == hi {
			continue
		}
		ents := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			j := r.entIdx(i)
			if j >= r.subCount {
				return nil, corruptf("%s: path %d: entity index %d out of range", r.path, p, j)
			}
			ents = append(ents, int32(j))
		}
		t.PathEnts[p] = ents
	}
	t.BigramKeys = make([]string, r.biCount)
	t.BigramVals = make([]int64, r.biCount)
	for i := 0; i < r.biCount; i++ {
		t.BigramKeys[i] = string(r.heapEntry(secBigramKeys, r.biCount, i))
		t.BigramVals[i] = int64(getU64(r.secs[secBigramVals][8*i:]))
	}
	if r.HasStoredText() {
		t.StoredKeys = make([]string, r.storedN)
		t.StoredTexts = make([]string, r.storedN)
		for i := 0; i < r.storedN; i++ {
			t.StoredKeys[i] = string(r.heapEntry(secStoredKeys, r.storedN, i))
			t.StoredTexts[i] = string(r.heapEntry(secStoredTexts, r.storedN, i))
		}
	}
	ix, err := invindex.FromTables(t)
	if err != nil {
		return nil, fmt.Errorf("snapfile: materialize %s: %w", r.path, err)
	}
	return ix, nil
}

var _ invindex.Source = (*Reader)(nil)
var _ io.Closer = (*Reader)(nil)
