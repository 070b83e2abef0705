// Package snapfile implements the versioned, mmap-able columnar
// snapshot format of the index (DESIGN.md §16): one immutable `.seg`
// file per sealed segment, opened in milliseconds regardless of corpus
// size and scored directly off the page cache.
//
// Layout of one .seg file:
//
//	header (24 bytes)
//	  magic "XCSEG001"                          (8)
//	  u32 section count                         (4)
//	  u32 flags (bit 0: stored text present)    (4)
//	  u32 CRC-32 (IEEE) of the section table    (4)
//	  u32 reserved                              (4)
//	section table: count × {u32 id, u32 reserved, u64 off, u64 len}
//	sections (descriptions below)
//	footer
//	  count × {u32 id, u32 CRC-32 of the section payload}
//	  u64 total file length
//	  magic "XCSEGEND"                          (8)
//
// Vocabulary and node tables are sorted offset tables over
// length-implicit string heaps, binary-searchable in place; posting
// lists are the internal/postings block payloads verbatim, paired with
// a separate per-token skip blob (postings.AppendMeta) so a reader
// rebuilds each skip table in O(blocks) without faulting payload
// pages. Opening verifies the header, section table, footer (which
// catches truncation in O(1)), and the CRCs of the two sections that
// are materialized (meta, paths); everything else is bounds-checked
// lazily on access and fully checksummed only by Reader.Verify.
package snapfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	magic     = "XCSEG001"
	endMagic  = "XCSEGEND"
	headerLen = 24
	// secEntryLen is one section-table entry; footEntryLen one footer
	// checksum entry.
	secEntryLen  = 24
	footEntryLen = 8
	// footTailLen is the fixed footer tail: file length + end magic.
	footTailLen = 16

	// formatVersion is carried in the meta section; readers reject
	// other versions.
	formatVersion = 1

	// flagStoredText marks snapshots built with stored preview text.
	flagStoredText = 1
)

// Section identifiers. The table is ordered but readers look sections
// up by id, so future versions may interleave new ones.
const (
	secMeta        = 1  // uvarint scalars (counts, tokenizer options)
	secPaths       = 2  // label-path table (parent zigzag, label)
	secVocabRec    = 3  // fixed 64-byte per-token records
	secVocabNames  = 4  // token string heap (sorted)
	secPostings    = 5  // concatenated posting block payloads
	secSkips       = 6  // per-token block/skip metadata blobs
	secTypes       = 7  // per-token type-list blobs
	secSubKeys     = 8  // (n+1) u64 offsets + node Dewey-key heap (sorted)
	secSubLens     = 9  // n × u32 subtree token counts
	secPathStats   = 10 // (p+1) u64 entity starts + p × u32 node counts
	secPathEnts    = 11 // entity indices into the subtree table
	secBigramKeys  = 12 // (n+1) u64 offsets + "w1\x00w2" heap (sorted)
	secBigramVals  = 13 // n × u64 adjacency counts
	secStoredKeys  = 14 // (n+1) u64 offsets + Dewey-key heap (doc order)
	secStoredTexts = 15 // (n+1) u64 offsets + text heap

	// numSections bounds the ids above; the reader indexes its section
	// array by id.
	numSections = 16
)

// vocabRecLen is the fixed size of one vocabulary record:
//
//	 0: nameOff u64   offset into secVocabNames
//	 8: postOff u64   offset into secPostings
//	16: skipOff u64   offset into secSkips
//	24: typeOff u64   offset into secTypes
//	32: count   u64   collection frequency (int64)
//	40: nameLen u32
//	44: postLen u32
//	48: skipLen u32
//	52: typeLen u32
//	56: df      u32   document frequency (list length)
//	60: reserved u32
const vocabRecLen = 64

var castTable = crc32.IEEETable

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castTable) }

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
func getU32(b []byte) uint32    { return binary.LittleEndian.Uint32(b) }
func getU64(b []byte) uint64    { return binary.LittleEndian.Uint64(b) }

// corruptError tags structural-corruption failures so callers can
// distinguish a damaged snapshot from an I/O error.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "snapfile: corrupt snapshot: " + e.msg }

func corruptf(format string, args ...interface{}) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}
