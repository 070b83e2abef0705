package postings

import (
	"math/rand"
	"reflect"
	"testing"

	"xclean/internal/xmltree"
)

// TestListOverPayloadRoundTrip: splitting a list into (payload, meta)
// and rebuilding it yields identical postings and skip behaviour.
func TestListOverPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, n := range []int{0, 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		orig := Encode(randomList(rng, n))
		re, err := ListOverPayload(orig.Payload(), orig.AppendMeta(nil))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if re.Len() != orig.Len() {
			t.Fatalf("n=%d: Len %d vs %d", n, re.Len(), orig.Len())
		}
		if !reflect.DeepEqual(re.Decode(), orig.Decode()) {
			t.Fatalf("n=%d: postings diverge", n)
		}
		// Skip probes land identically.
		want := orig.Decode()
		for step := 1; step < len(want); step += len(want)/7 + 1 {
			io, ir := orig.Iter(), re.Iter()
			io.SkipTo(want[step].Dewey)
			ir.SkipTo(want[step].Dewey)
			ho, oko := io.Head()
			hr, okr := ir.Head()
			if oko != okr || (oko && !reflect.DeepEqual(ho, hr)) {
				t.Fatalf("n=%d step=%d: skip diverges", n, step)
			}
		}
	}
}

// TestListOverPayloadRejects pins a few structural corruption classes
// with exact errors (the fuzz target covers the long tail).
func TestListOverPayloadRejects(t *testing.T) {
	orig := Encode(randomList(rand.New(rand.NewSource(78)), 300))
	payload, meta := orig.Payload(), orig.AppendMeta(nil)
	cases := map[string]struct{ p, m []byte }{
		"empty meta":        {payload, nil},
		"truncated meta":    {payload, meta[:len(meta)/2]},
		"truncated payload": {payload[:len(payload)-1], meta},
		"extended payload":  {append(append([]byte(nil), payload...), 0), meta},
		"trailing meta":     {payload, append(append([]byte(nil), meta...), 7)},
		"phantom postings":  {nil, []byte{200, 1, 2}}, // n=200, blocks=2, no payload
		// n=1, one block of 5 payload bytes whose first code claims 9
		// components with 2 metadata bytes left.
		"first code past meta": {payload[:5], []byte{1, 1, 5, 9, 1, 1}},
	}
	for name, c := range cases {
		if _, err := ListOverPayload(c.p, c.m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSkipToDeepCodes: the skip table must hold a block's whole first
// code however deep the node. The length used to be stored in a uint8,
// so on codes of depth ≥ 256 every block-first entry was cut to a
// prefix that sorts before all of the list, and SkipTo jumped to the
// last block — silently dropping postings. Checked on the encoder's
// list and on one rebuilt from split metadata.
func TestSkipToDeepCodes(t *testing.T) {
	const depth = 300
	ps := make([]Posting, 3*BlockSize)
	for i := range ps {
		d := make(xmltree.Dewey, depth)
		for j := range d {
			d[j] = 1
		}
		d[depth-1] = uint32(i + 1)
		ps[i] = Posting{Dewey: d, Path: 3, TF: 1, NodeLen: 4}
	}
	enc := Encode(ps)
	split, err := ListOverPayload(enc.Payload(), enc.AppendMeta(nil))
	if err != nil {
		t.Fatalf("ListOverPayload rejects depth-%d codes: %v", depth, err)
	}
	for name, l := range map[string]*List{"Encode": enc, "ListOverPayload": split} {
		for _, want := range []int{BlockSize - 1, BlockSize, 2*BlockSize - 1, 2*BlockSize + 5} {
			got, ok := l.Iter().SkipTo(ps[want].Dewey)
			if !ok || got.Dewey.Compare(ps[want].Dewey) != 0 {
				t.Errorf("%s: SkipTo(posting %d) landed on %d (ok=%v)",
					name, want, int(got.Dewey[depth-1])-1, ok)
			}
		}
	}
}

// TestIteratorReset: a reused iterator walks the next list exactly as a
// fresh one does, and Reset(nil) leaves it exhausted and detached.
func TestIteratorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	var it Iterator
	for _, n := range []int{300, 0, 5, BlockSize + 1} {
		ps := randomList(rng, n)
		it.Reset(Encode(ps))
		var got []Posting
		for p, ok := it.Head(); ok; p, ok = it.Head() {
			p.Dewey = p.Dewey.Clone()
			got = append(got, p)
			it.Advance()
		}
		if len(got) != len(ps) || (len(ps) > 0 && !reflect.DeepEqual(got, ps)) {
			t.Fatalf("n=%d: reused iterator yields %d postings, want %d", n, len(got), len(ps))
		}
	}
	it.Reset(nil)
	if _, ok := it.Head(); ok || it.l != nil {
		t.Fatal("Reset(nil) left the iterator attached")
	}
	it.Advance() // must not panic
	if _, ok := it.SkipTo(xmltree.Dewey{1}); ok {
		t.Fatal("detached iterator skipped somewhere")
	}
}
