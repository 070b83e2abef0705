package segment

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xclean/internal/core"
	"xclean/internal/invindex"
	"xclean/internal/obs"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

func doc(i int) string {
	return fmt.Sprintf(`<article><author>author%d shared</author><title>topic%d common words</title></article>`, i, i)
}

func parseDoc(t *testing.T, xml string) *xmltree.Tree {
	t.Helper()
	tree, err := xmltree.Parse(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// newTestStore builds a store over a base collection of n documents.
func newTestStore(t *testing.T, n int, cfg Config) *Store {
	t.Helper()
	var b strings.Builder
	b.WriteString("<dblp>")
	for i := 1; i <= n; i++ {
		b.WriteString(doc(i))
	}
	b.WriteString("</dblp>")
	tree := parseDoc(t, b.String())
	ix := invindex.BuildStored(tree, tokenizer.Options{})
	cfg.StoreText = true
	st, err := NewStore(ix, core.NewEngine(ix, cfg.Core), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// holdCompactor takes the compactor's in-flight guard for the rest of
// the test, so neither the write-triggered burst nor the interval
// ticker can run; CompactOnce and Flatten still work. Tests that
// assert an exact stack shape between writes take it before their
// first write, because a burst started by their own writes would
// otherwise reshape the stack first.
func (st *Store) holdCompactor(t *testing.T) {
	t.Helper()
	if !st.inFlight.CompareAndSwap(false, true) {
		t.Fatal("compactor already running")
	}
	t.Cleanup(func() { st.inFlight.Store(false) })
}

func (st *Store) addN(t *testing.T, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.AddDocument(parseDoc(t, doc(from+i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSealAtTailLimit(t *testing.T) {
	st := newTestStore(t, 2, Config{TailLimit: 3})
	st.addN(t, 3, 2)
	if s := st.SegmentStats(); s.Segments != 1 || s.TailDocs != 2 {
		t.Fatalf("before seal: %+v", s)
	}
	st.addN(t, 5, 1) // third tail doc triggers the seal
	if s := st.SegmentStats(); s.Segments != 2 || s.TailDocs != 0 {
		t.Fatalf("after seal: %+v", s)
	}
	// Ordinal bookkeeping: next add lands at 1.6.
	st.addN(t, 6, 1)
	if got := st.SubtreeText(xmltree.Dewey{1, 6}, 100); !strings.Contains(got, "author6") {
		t.Fatalf("1.6 = %q", got)
	}
}

func TestFastEngineTransitions(t *testing.T) {
	st := newTestStore(t, 2, Config{TailLimit: 10})
	st.holdCompactor(t)
	if st.FastEngine() == nil {
		t.Fatal("flat base stack should expose a fast engine")
	}
	st.addN(t, 3, 1)
	if st.FastEngine() != nil {
		t.Fatal("base + tail is not flat")
	}
	// A tombstone on the single sealed segment also defeats the fast
	// path after the tail drains.
	if err := st.RemoveDocument(xmltree.Dewey{1, 3}); err != nil { // tail doc: dropped outright
		t.Fatal(err)
	}
	if st.FastEngine() == nil {
		t.Fatal("tail drained back to the flat base: fast engine expected")
	}
	if err := st.RemoveDocument(xmltree.Dewey{1, 1}); err != nil { // sealed doc: tombstone
		t.Fatal(err)
	}
	if st.FastEngine() != nil {
		t.Fatal("tombstoned segment must not serve the fast path")
	}
	if _, err := st.Flatten(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.FastEngine() == nil {
		t.Fatal("flattened stack should expose a fast engine")
	}
}

func TestRemoveErrors(t *testing.T) {
	st := newTestStore(t, 2, Config{TailLimit: 10})
	if err := st.RemoveDocument(xmltree.Dewey{1}); err == nil {
		t.Error("root removal accepted")
	}
	if err := st.RemoveDocument(xmltree.Dewey{1, 1, 1}); err == nil {
		t.Error("deep removal accepted")
	}
	if err := st.RemoveDocument(xmltree.Dewey{1, 99}); err == nil {
		t.Error("absent ordinal accepted")
	}
	if err := st.RemoveDocument(xmltree.Dewey{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveDocument(xmltree.Dewey{1, 2}); err == nil {
		t.Error("double removal accepted")
	}
}

func TestPurgeDropsEmptySegment(t *testing.T) {
	st := newTestStore(t, 2, Config{TailLimit: 2})
	st.addN(t, 3, 2) // seals a second segment {1.3, 1.4}
	if s := st.SegmentStats(); s.Segments != 2 {
		t.Fatalf("setup: %+v", s)
	}
	for _, ord := range []uint32{3, 4} {
		if err := st.RemoveDocument(xmltree.Dewey{1, ord}); err != nil {
			t.Fatal(err)
		}
	}
	// A fully tombstoned segment is dropped at removal time.
	if s := st.SegmentStats(); s.Segments != 1 || s.Tombstones != 0 {
		t.Fatalf("after emptying a segment: %+v", s)
	}
	// The survivors are untouched.
	if got := st.SubtreeText(xmltree.Dewey{1, 1}, 100); !strings.Contains(got, "author1") {
		t.Fatalf("1.1 = %q", got)
	}
}

func TestPurgeRewritesTombstonedSegment(t *testing.T) {
	st := newTestStore(t, 8, Config{TailLimit: 100})
	st.holdCompactor(t)
	// Two of eight documents tombstoned reaches the 1/4 purge threshold.
	for _, ord := range []uint32{2, 5} {
		if err := st.RemoveDocument(xmltree.Dewey{1, ord}); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.SegmentStats(); s.Tombstones != 2 {
		t.Fatalf("setup: %+v", s)
	}
	did, err := st.CompactOnce(context.Background())
	if err != nil || !did {
		t.Fatalf("purge did=%v err=%v", did, err)
	}
	s := st.SegmentStats()
	if s.Segments != 1 || s.Tombstones != 0 || s.Compactions != 1 {
		t.Fatalf("after purge: %+v", s)
	}
	if st.FastEngine() == nil {
		t.Fatal("purged flat stack should expose a fast engine")
	}
	if got := st.SubtreeText(xmltree.Dewey{1, 2}, 100); got != "" {
		t.Fatalf("purged document still stored: %q", got)
	}
	if got := st.SubtreeText(xmltree.Dewey{1, 6}, 100); !strings.Contains(got, "author6") {
		t.Fatalf("surviving 1.6 = %q", got)
	}
}

func TestMergeShrinksDeepStack(t *testing.T) {
	st := newTestStore(t, 1, Config{TailLimit: 1})
	st.holdCompactor(t)
	st.addN(t, 2, 6) // every add seals: 7 single-doc segments
	if s := st.SegmentStats(); s.Segments != 7 {
		t.Fatalf("setup: %+v", s)
	}
	for {
		did, err := st.CompactOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	s := st.SegmentStats()
	if s.Segments > maxSealed {
		t.Fatalf("stack still deep after merging: %+v", s)
	}
	if s.Compactions == 0 {
		t.Fatal("no compaction counted")
	}
	// Every document remains reachable through the merged segments.
	for ord := uint32(1); ord <= 7; ord++ {
		if got := st.SubtreeText(xmltree.Dewey{1, ord}, 100); got == "" {
			t.Errorf("1.%d lost in merge", ord)
		}
	}
}

func TestStatsMatchMonolithicRebuild(t *testing.T) {
	st := newTestStore(t, 2, Config{TailLimit: 2})
	st.addN(t, 3, 3)
	if err := st.RemoveDocument(xmltree.Dewey{1, 4}); err != nil {
		t.Fatal(err)
	}
	// Reference: the surviving documents in one monolithic index.
	var b strings.Builder
	b.WriteString("<dblp>")
	for _, i := range []int{1, 2, 3, 5} {
		b.WriteString(doc(i))
	}
	b.WriteString("</dblp>")
	ref := invindex.BuildStored(parseDoc(t, b.String()), tokenizer.Options{})

	got := st.Stats()
	if got.Nodes != ref.NodeCount() || got.Tokens != ref.TotalTokens() ||
		got.Vocab != ref.Vocab.Size() || got.MaxDepth != ref.MaxDepth() {
		t.Fatalf("stats %+v vs reference nodes=%d tokens=%d vocab=%d depth=%d",
			got, ref.NodeCount(), ref.TotalTokens(), ref.Vocab.Size(), ref.MaxDepth())
	}
}

func TestSinkGaugesAndCounters(t *testing.T) {
	sink := obs.NewSink()
	st := newTestStore(t, 2, Config{TailLimit: 2, Sink: sink})
	st.holdCompactor(t)
	st.addN(t, 3, 3) // one seal (docs 3,4), doc 5 in tail
	if err := st.RemoveDocument(xmltree.Dewey{1, 1}); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if snap.Segments != 2 || snap.TailDocs != 1 || snap.Tombstones != 1 {
		t.Fatalf("gauges: %+v", snap)
	}
	if snap.DocsAdded != 3 || snap.DocsRemoved != 1 {
		t.Fatalf("counters: added=%d removed=%d", snap.DocsAdded, snap.DocsRemoved)
	}
	if _, err := st.Flatten(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap = sink.Snapshot()
	if snap.Segments != 1 || snap.TailDocs != 0 || snap.Tombstones != 0 {
		t.Fatalf("gauges after flatten: %+v", snap)
	}
	if snap.CompactionRuns != 1 || snap.CompactionBytes == 0 {
		t.Fatalf("compaction counters: %+v", snap)
	}
}

// The background path: a write that crosses the purge threshold starts
// a compaction burst on its own, which purges the tombstones without
// any explicit CompactOnce.
func TestWriteTriggersCompaction(t *testing.T) {
	st := newTestStore(t, 8, Config{TailLimit: 100})
	for _, ord := range []uint32{2, 5} {
		if err := st.RemoveDocument(xmltree.Dewey{1, ord}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := st.SegmentStats()
		if s.Compactions > 0 && s.Tombstones == 0 && !st.inFlight.Load() {
			if s.Segments != 1 {
				t.Fatalf("after background purge: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background compaction within 5s: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	if got := st.SubtreeText(xmltree.Dewey{1, 2}, 100); got != "" {
		t.Fatalf("purged document still stored: %q", got)
	}
}
