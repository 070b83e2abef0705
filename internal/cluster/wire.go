package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"xclean/internal/core"
	"xclean/internal/obs"
)

// The shard wire: POST /shard/suggest carries a BatchRequest and
// answers a BatchResponse, both in one length-prefixed binary form.
// Every body opens with the magic "XCW" and the uvarint WireVersion.
// Integers are uvarints, floats are the 8 little-endian bytes of their
// IEEE-754 bits (so sums cross the wire exactly), and a string is a
// uvarint byte length followed by its bytes.
//
//	request:  magic version corpus requestID n query×n
//	response: magic version corpus tookMillis trace n entry×n
//	trace:    uvarint length + the SpanNode tree as JSON (length 0 when
//	          the request was untraced)
//	entry:    query error, then, when error is "", one partial set:
//	            nkw (nv (word dist)×nv)×nkw
//	            np path×np
//	            nn (path norm)×nn
//	            nc (choice×nkw type sum entities witness coherence)×nc
//
// Within a set, candidates name their words by index into the set's
// own variant lists and their result type by index into its path
// dictionary, so each word and path is written once per entry (see
// core.PartialSet). A witness is the raw fixed-width Dewey key.
//
// Decoding is strict and bounded: every count is checked against the
// bytes left before anything is allocated for it, every index against
// the dictionary it names, so a hostile or truncated body errors
// rather than panics and allocation stays O(input). Decoded strings
// are substrings of the one body string the caller passes in.

// wireMagic opens every shard wire body.
const wireMagic = "XCW"

// ContentType labels shard wire bodies in both directions.
const ContentType = "application/x-xclean-shard"

// VersionError reports a body speaking another WireVersion, including
// a JSON body from a peer that still speaks the JSON envelope (version
// 2 and earlier).
type VersionError struct{ Got int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire version %d (want %d)", e.Got, WireVersion)
}

// AppendBatchRequest appends req's wire form to dst. Version is always
// written as WireVersion.
func AppendBatchRequest(dst []byte, req *BatchRequest) []byte {
	dst = appendHeader(dst)
	dst = appendString(dst, req.Corpus)
	dst = appendString(dst, req.RequestID)
	dst = binary.AppendUvarint(dst, uint64(len(req.Queries)))
	for _, q := range req.Queries {
		dst = appendString(dst, q)
	}
	return dst
}

// DecodeBatchRequest parses a request body. A body speaking another
// version fails with a *VersionError.
func DecodeBatchRequest(body string) (BatchRequest, error) {
	r := wireReader{s: body}
	if err := r.header(); err != nil {
		return BatchRequest{}, err
	}
	req := BatchRequest{Version: WireVersion, Corpus: r.str(), RequestID: r.str()}
	if n := r.count(1); n > 0 {
		req.Queries = make([]string, n)
		for i := range req.Queries {
			req.Queries[i] = r.str()
		}
	}
	return req, r.finish()
}

// AppendBatchResponse appends br's wire form to dst. Version is always
// written as WireVersion. It fails only if the trace span does not
// marshal.
func AppendBatchResponse(dst []byte, br *BatchResponse) ([]byte, error) {
	dst = appendHeader(dst)
	dst = appendString(dst, br.Corpus)
	dst = appendFloat(dst, br.TookMillis)
	if br.TraceSpan == nil {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		tj, err := json.Marshal(br.TraceSpan)
		if err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(tj)))
		dst = append(dst, tj...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(br.Results)))
	for i := range br.Results {
		e := &br.Results[i]
		dst = appendString(dst, e.Query)
		dst = appendString(dst, e.Error)
		if e.Error == "" {
			dst = appendPartialSet(dst, &e.PartialSet)
		}
	}
	return dst, nil
}

func appendPartialSet(dst []byte, ps *core.PartialSet) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ps.Keywords)))
	for _, vs := range ps.Keywords {
		dst = binary.AppendUvarint(dst, uint64(len(vs)))
		for _, v := range vs {
			dst = appendString(dst, v.Word)
			dst = binary.AppendUvarint(dst, uint64(v.Dist))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(ps.Paths)))
	for _, p := range ps.Paths {
		dst = appendString(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ps.TypeNorms)))
	for _, tn := range ps.TypeNorms {
		dst = binary.AppendUvarint(dst, uint64(tn.Path))
		dst = appendFloat(dst, tn.Norm)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ps.Candidates)))
	for i := range ps.Candidates {
		c := &ps.Candidates[i]
		for _, j := range c.Choice {
			dst = binary.AppendUvarint(dst, uint64(j))
		}
		dst = binary.AppendUvarint(dst, uint64(c.ResultType))
		dst = appendFloat(dst, c.Sum)
		dst = binary.AppendUvarint(dst, uint64(c.Entities))
		dst = appendString(dst, c.Witness)
		dst = appendFloat(dst, c.Coherence)
	}
	return dst
}

// DecodeBatchResponse parses a response body. A body speaking another
// version fails with a *VersionError.
func DecodeBatchResponse(body string) (*BatchResponse, error) {
	r := wireReader{s: body}
	if err := r.header(); err != nil {
		return nil, err
	}
	br := &BatchResponse{Version: WireVersion, Corpus: r.str(), TookMillis: r.float()}
	if tj := r.str(); tj != "" && r.err == nil {
		br.TraceSpan = new(obs.SpanNode)
		if err := json.Unmarshal([]byte(tj), br.TraceSpan); err != nil {
			return nil, fmt.Errorf("trace span: %w", err)
		}
	}
	if n := r.count(2); n > 0 {
		br.Results = make([]BatchEntry, n)
		for i := range br.Results {
			e := &br.Results[i]
			e.Query, e.Error = r.str(), r.str()
			if e.Error == "" {
				r.partialSet(&e.PartialSet)
			}
			if r.err != nil {
				break
			}
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return br, nil
}

// Minimum encoded sizes, in bytes, of the repeated items: the bound
// each count is checked against before its slice is made.
const (
	minVariant   = 2  // word length + dist
	minTypeNorm  = 9  // path + norm
	minCandidate = 19 // type + sum + entities + witness length + coherence, before the choices
)

func (r *wireReader) partialSet(ps *core.PartialSet) {
	if nkw := r.count(1); nkw > 0 {
		ps.Keywords = make([][]core.PartialVariant, nkw)
		for i := range ps.Keywords {
			if nv := r.count(minVariant); nv > 0 {
				vs := make([]core.PartialVariant, nv)
				for j := range vs {
					vs[j] = core.PartialVariant{Word: r.str(), Dist: r.int()}
				}
				ps.Keywords[i] = vs
			}
		}
	}
	if np := r.count(1); np > 0 {
		ps.Paths = make([]string, np)
		for i := range ps.Paths {
			ps.Paths[i] = r.str()
		}
	}
	if nn := r.count(minTypeNorm); nn > 0 {
		ps.TypeNorms = make([]core.TypeNorm, nn)
		for i := range ps.TypeNorms {
			ps.TypeNorms[i] = core.TypeNorm{Path: r.index(len(ps.Paths)), Norm: r.float()}
		}
	}
	nkw := len(ps.Keywords)
	nc := r.count(minCandidate + nkw)
	if nc == 0 {
		return
	}
	choices := make([]int32, nc*nkw)
	ps.Candidates = make([]core.PartialCandidate, nc)
	for i := range ps.Candidates {
		ch := choices[i*nkw : (i+1)*nkw : (i+1)*nkw]
		for k := range ch {
			ch[k] = r.index(len(ps.Keywords[k]))
		}
		c := &ps.Candidates[i]
		c.Choice = ch
		c.ResultType = r.index(len(ps.Paths))
		c.Sum = r.float()
		c.Entities = r.int()
		c.Witness = r.str()
		c.Coherence = r.float()
		if len(c.Witness)%4 != 0 {
			r.fail("witness key of %d bytes", len(c.Witness))
		}
		if r.err != nil {
			return
		}
	}
}

// wireReader decodes one body. The first error sticks: every later read
// returns a zero value, so decoders check r.err once per loop.
type wireReader struct {
	s   string
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("shard wire: offset %d: "+format, append([]any{r.off}, args...)...)
	}
}

func (r *wireReader) header() error {
	if !strings.HasPrefix(r.s, wireMagic) {
		if v, ok := jsonVersion(r.s); ok {
			return &VersionError{Got: v}
		}
		return errors.New("shard wire: not a shard wire body")
	}
	r.off = len(wireMagic)
	if v := r.uvarint(); r.err == nil && v != WireVersion {
		return &VersionError{Got: int(min(v, math.MaxInt32))}
	}
	return r.err
}

// jsonVersion reads the version of a JSON envelope, the wire of
// version 2 and earlier, so that a stale peer is told which versions
// disagree.
func jsonVersion(s string) (int, bool) {
	s = strings.TrimLeft(s, " \t\r\n")
	if !strings.HasPrefix(s, "{") {
		return 0, false
	}
	var env struct {
		Version int `json:"version"`
	}
	if json.Unmarshal([]byte(s), &env) != nil {
		return 0, false
	}
	return env.Version, true
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := uvarintString(r.s[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// uvarintString is binary.Uvarint over a string, so decoding never
// copies the body.
func uvarintString(s string) (uint64, int) {
	var x uint64
	var shift uint
	for i := 0; i < len(s) && i < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1) // overflow
			}
			return x | uint64(b)<<shift, i + 1
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// count reads a count of items encoded in at least minBytes bytes each
// and rejects it unless that many items fit in the bytes left.
func (r *wireReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64((len(r.s)-r.off)/minBytes) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.s)-r.off)
		return 0
	}
	return int(v)
}

// int reads a non-negative int no larger than MaxInt32.
func (r *wireReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// index reads an index into a dictionary of n entries.
func (r *wireReader) index(n int) int32 {
	v := r.uvarint()
	if r.err == nil && v >= uint64(n) {
		r.fail("index %d outside a dictionary of %d", v, n)
		return 0
	}
	return int32(v)
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.s)-r.off) {
		r.fail("string of %d bytes exceeds the %d left", n, len(r.s)-r.off)
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *wireReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.s)-r.off < 8 {
		r.fail("truncated float")
		return 0
	}
	var b [8]byte
	copy(b[:], r.s[r.off:r.off+8])
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// finish reports the first error, or trailing bytes after a complete
// body.
func (r *wireReader) finish() error {
	if r.err == nil && r.off != len(r.s) {
		r.fail("%d trailing bytes", len(r.s)-r.off)
	}
	return r.err
}

func appendHeader(dst []byte) []byte {
	dst = append(dst, wireMagic...)
	return binary.AppendUvarint(dst, WireVersion)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// maxPooledBody caps the buffers kept for reuse, so one huge body does
// not stay resident in the pool.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns an empty pooled buffer for encoding or reading a
// shard wire body; PutBuffer returns it.
func GetBuffer() *[]byte {
	b := bodyPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a buffer from GetBuffer to the pool (buffers grown
// past maxPooledBody are dropped instead).
func PutBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// ReadBody reads a whole body into *buf, growing it as needed. It
// fails when the body exceeds limit bytes. size is the declared
// length (-1 when unknown); up to maxPooledBody it sizes the read up
// front, beyond that the buffer grows only with bytes that arrive.
func ReadBody(body io.Reader, buf *[]byte, size int64, limit int) error {
	if size > int64(limit) {
		return fmt.Errorf("body of %d bytes exceeds the %d-byte limit", size, limit)
	}
	b := (*buf)[:0]
	if size > 0 && size <= maxPooledBody && cap(b) < int(size) {
		b = make([]byte, 0, size)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*buf = b
		if len(b) > limit {
			return fmt.Errorf("body exceeds the %d-byte limit", limit)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
