package postings

import (
	"encoding/binary"
	"fmt"
)

// On-disk split representation (internal/snapfile): a list's block
// payloads and its block/skip metadata are stored as two separate
// byte ranges, so a reader can rebuild the skip table by decoding the
// small metadata blob alone — O(blocks), never touching the payload
// pages — and serve SkipTo probes straight off an mmap'd payload.
//
// Metadata layout (all uvarints):
//
//	n                    postings
//	blocks               block count
//	per block:
//	  payloadLen         block payload bytes
//	  firstLen           components of the block's first Dewey code
//	  firstLen × comp    the code itself
//
// This duplicates what DecodeList reconstructs by decoding the first
// posting of every block, trading a few bytes per block for not
// faulting in any payload page at open time.

// Payload returns the concatenated block payloads. The slice aliases
// internal storage and must not be mutated.
func (l *List) Payload() []byte { return l.data }

// AppendMeta appends the list's block/skip metadata to buf.
func (l *List) AppendMeta(buf []byte) []byte {
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
		first := l.blockFirst(i)
		put(uint64(len(first)))
		for _, c := range first {
			put(uint64(c))
		}
	}
	return buf
}

// ListOverPayload reconstructs a list over an existing concatenated
// block payload using metadata produced by AppendMeta. The payload is
// aliased, not copied, and — unlike DecodeList — never read: the skip
// table comes entirely from meta, so reconstruction is O(blocks).
//
// Both inputs may be untrusted bytes (a corrupt snapshot): every
// structural inconsistency returns an error, and no allocation is
// sized from an unvalidated header count, so corrupt input can never
// cause a panic or an outsized allocation. Payload corruption that
// metadata cannot reveal (flipped bytes inside a block) surfaces later
// as the iterator's fail-stop behaviour, never as a crash.
func ListOverPayload(payload, meta []byte) (*List, error) {
	read := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(meta[read:])
		if n <= 0 {
			return 0, fmt.Errorf("postings: truncated list metadata")
		}
		read += n
		return v, nil
	}
	n, err := uv()
	if err != nil {
		return nil, err
	}
	blocks, err := uv()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		if blocks != 0 || len(payload) != 0 {
			return nil, fmt.Errorf("postings: empty list with %d blocks, %d payload bytes", blocks, len(payload))
		}
		return &List{}, nil
	}
	// Every posting costs at least 5 payload bytes (two header varints,
	// one path, one tf, one node length), so a count beyond the payload
	// size is structurally impossible — and would otherwise let corrupt
	// metadata size Decode's preallocation.
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("postings: %d postings cannot fit %d payload bytes", n, len(payload))
	}
	if want := (n + BlockSize - 1) / BlockSize; blocks != want {
		return nil, fmt.Errorf("postings: %d postings need %d blocks, metadata says %d", n, want, blocks)
	}
	l := &List{n: int(n), data: payload}
	off := 0
	for b := uint64(0); b < blocks; b++ {
		plen, err := uv()
		if err != nil {
			return nil, err
		}
		if plen > uint64(len(payload)-off) {
			return nil, fmt.Errorf("postings: block %d overruns payload", b)
		}
		firstLen, err := uv()
		if err != nil {
			return nil, err
		}
		// Each component costs at least one metadata byte, so a length
		// beyond the bytes left is impossible — and the bound keeps the
		// appends below from being sized by an unvalidated count.
		if firstLen < 1 || firstLen > uint64(len(meta)-read) {
			return nil, fmt.Errorf("postings: block %d has impossible first-code length %d", b, firstLen)
		}
		l.offs = append(l.offs, off)
		l.skipStart = append(l.skipStart, len(l.skipComps))
		for i := uint64(0); i < firstLen; i++ {
			c, err := uv()
			if err != nil {
				return nil, err
			}
			if c > 1<<32-1 {
				return nil, fmt.Errorf("postings: block %d first-code component overflows uint32", b)
			}
			l.skipComps = append(l.skipComps, uint32(c))
		}
		off += int(plen)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("postings: block metadata covers %d of %d payload bytes", off, len(payload))
	}
	if read != len(meta) {
		return nil, fmt.Errorf("postings: %d trailing metadata bytes", len(meta)-read)
	}
	l.skipStart = append(l.skipStart, len(l.skipComps))
	return l, nil
}
