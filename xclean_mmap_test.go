package xclean

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xclean/internal/dataset"
	"xclean/internal/snapfile"
)

// The snapshot-reader differential harness: every configuration of the
// segmented parity matrix is replayed heap-engine vs snapfile.Reader —
// same corpus, same queries, scores within 1e-12 (assertParity's
// tolerance) — across both the mmap and the NoMmap fallback paths.

// snapReopen persists the engine as a single-segment snapshot and
// reopens it through the sniffing open path.
func snapReopen(t *testing.T, e *Engine, opts Options) *Engine {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.seg")
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("save snapshot: %v", err)
	}
	re, err := OpenIndexFile(path, opts)
	if err != nil {
		t.Fatalf("reopen snapshot: %v", err)
	}
	return re
}

func testSnapshotReaderParity(t *testing.T, opts Options) {
	t.Helper()
	ref, err := Open(strings.NewReader(collectionXML(segDocs)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []bool{false, true} {
		ropts := opts
		ropts.NoMmap = noMmap
		snap := snapReopen(t, ref, ropts)
		if !snap.SnapshotBacked() {
			t.Fatal("engine is not snapshot-backed")
		}
		if !reflect.DeepEqual(snap.Stats(), ref.Stats()) {
			t.Errorf("stats diverge: %+v vs %+v", snap.Stats(), ref.Stats())
		}
		for _, q := range segQueries {
			assertParity(t, "snap", q, snap.Suggest(q), ref.Suggest(q))
			assertParity(t, "snap-spaces", q, snap.SuggestWithSpaces(q), ref.SuggestWithSpaces(q))
		}
		if err := snap.VerifySnapshot(); err != nil {
			t.Errorf("verify: %v", err)
		}
	}
}

func TestSnapshotReaderParity(t *testing.T) {
	testSnapshotReaderParity(t, Options{StoreText: true, Workers: 1})
}

func TestSnapshotReaderParityParallelScan(t *testing.T) {
	testSnapshotReaderParity(t, Options{StoreText: true})
}

func TestSnapshotReaderParityBigramLengthPrior(t *testing.T) {
	testSnapshotReaderParity(t, Options{
		StoreText:       true,
		Workers:         1,
		BigramCoherence: true,
		EntityPrior:     PriorLength,
	})
}

func TestSnapshotReaderParityCompactPostings(t *testing.T) {
	testSnapshotReaderParity(t, Options{StoreText: true, Workers: 1, CompactPostings: true})
}

func TestSnapshotReaderParityPhoneticSynonyms(t *testing.T) {
	testSnapshotReaderParity(t, Options{
		StoreText:        true,
		Workers:          1,
		PhoneticMatching: true,
		Synonyms:         map[string][]string{"database": {"databases"}},
	})
}

// TestSnapshotReaderParitySLCA: snapshot-backed SLCA/ELCA engines
// materialize at open and must still agree with the live engine.
func TestSnapshotReaderParitySLCA(t *testing.T) {
	for _, sem := range []Semantics{SemanticsSLCA, SemanticsELCA} {
		opts := Options{StoreText: true, Semantics: sem}
		ref, err := Open(strings.NewReader(collectionXML(segDocs)), opts)
		if err != nil {
			t.Fatal(err)
		}
		snap := snapReopen(t, ref, opts)
		for _, q := range segQueries[:4] {
			assertParity(t, "slca-snap", q, snap.Suggest(q), ref.Suggest(q))
		}
	}
}

// TestSnapshotPostCompactionStack drives the PR 8 add/remove workload
// through a segment stack, drains the compactor, snapshots the sealed
// stack as a manifest, and requires the reopened engine to match the
// live one. This covers the multi-segment manifest path end to end.
func TestSnapshotPostCompactionStack(t *testing.T) {
	opts := Options{StoreText: true, Workers: 1, TailLimit: 3}
	removeOrds := []int{2, 7, 11, 14}
	seg := buildSegmented(t, opts, 5, removeOrds)
	defer seg.Close()
	for {
		did, err := seg.CompactNow(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}

	dir := t.TempDir()
	manifest := filepath.Join(dir, "stack.xcm")
	if err := seg.SaveSnapshot(manifest); err != nil {
		t.Fatalf("save stack snapshot: %v", err)
	}
	m, err := snapfile.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) < 1 {
		t.Fatalf("manifest lists no segments")
	}
	snap, err := OpenIndexFile(manifest, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range segQueries {
		assertParity(t, "stack-snap", q, snap.Suggest(q), seg.Suggest(q))
	}

	// The flattened single-segment form serves pure-mmap.
	if err := seg.FlushSegments(context.Background()); err != nil {
		t.Fatal(err)
	}
	flat := filepath.Join(dir, "flat.xcm")
	if err := seg.SaveSnapshot(flat); err != nil {
		t.Fatal(err)
	}
	fm, err := snapfile.ReadManifest(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Segments) != 1 {
		t.Fatalf("flattened stack wrote %d segments, want 1", len(fm.Segments))
	}
	fsnap, err := OpenIndexFile(flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fsnap.SnapshotBacked() {
		t.Error("one-segment manifest should serve snapshot-backed")
	}
	for _, q := range segQueries {
		assertParity(t, "flat-snap", q, fsnap.Suggest(q), seg.Suggest(q))
	}
}

// TestSnapshotWriteMaterializes: the first live write on a
// snapshot-backed engine materializes the corpus and keeps serving,
// with parity against a cold rebuild of the enlarged corpus.
func TestSnapshotWriteMaterializes(t *testing.T) {
	opts := Options{StoreText: true, Workers: 1}
	base, err := Open(strings.NewReader(collectionXML(segDocs[:8])), opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapReopen(t, base, opts)
	for _, d := range segDocs[8:] {
		if err := snap.AddDocument(strings.NewReader(d)); err != nil {
			t.Fatalf("add on snapshot-backed engine: %v", err)
		}
	}
	if snap.SnapshotBacked() {
		t.Error("engine still reports snapshot-backed after writes")
	}
	ref, err := Open(strings.NewReader(collectionXML(segDocs)), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range segQueries {
		assertParity(t, "post-write", q, snap.Suggest(q), ref.Suggest(q))
	}
}

// TestSnapshotOpenRejectsCorruption: a truncated or bit-flipped
// snapshot must fail loudly at open (or verify), never panic, and
// never silently serve.
func TestSnapshotOpenRejectsCorruption(t *testing.T) {
	ref := openSample(t, Options{StoreText: true})
	dir := t.TempDir()
	path := filepath.Join(dir, "c.seg")
	if err := ref.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.seg")
	if err := os.WriteFile(bad, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexFile(bad, Options{}); err == nil {
		t.Error("truncated snapshot opened without error")
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/3] ^= 0x20
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := OpenIndexFile(bad, Options{})
	if err == nil {
		if verr := e.VerifySnapshot(); verr == nil {
			t.Error("bit flip passed open and verify")
		}
	}
}

// TestSnapshotConcurrentOpenEvictQuery models the catalog's lifecycle
// under -race: readers query through atomically-swapped engines while
// an "evictor" keeps reopening the snapshots and dropping the old
// engines (eviction is just dropping the reference; the finalizer
// unmaps once in-flight queries drain). Two corpora are served from two
// snapshot files and every reader goroutine alternates between them, so
// the merged lists one scan releases are reused by a scan over the
// other reader — possibly after the first was unmapped. A pooled cursor
// that kept a reference into a mapping would fault or answer from the
// wrong corpus; every answer is checked against its heap reference.
func TestSnapshotConcurrentOpenEvictQuery(t *testing.T) {
	opts := Options{StoreText: true}
	corpora := [2][]string{segDocs, segDocs[:9]}
	var paths [2]string
	var want [2][][]Suggestion
	for c, docs := range corpora {
		ref, err := Open(strings.NewReader(collectionXML(docs)), opts)
		if err != nil {
			t.Fatal(err)
		}
		paths[c] = filepath.Join(t.TempDir(), "c.seg")
		if err := ref.SaveSnapshot(paths[c]); err != nil {
			t.Fatal(err)
		}
		for _, q := range segQueries {
			want[c] = append(want[c], ref.Suggest(q))
		}
	}
	open := func(c int) *Engine {
		e, err := OpenSnapshot(paths[c], opts)
		if err != nil {
			t.Error(err)
			return nil
		}
		return e
	}
	var cur [2]atomic.Pointer[Engine]
	for c := range cur {
		cur[c].Store(open(c))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := (i + r) % 2
				e := cur[c].Load()
				if e == nil {
					return
				}
				qi := (i/2 + r) % len(segQueries)
				if got := e.Suggest(segQueries[qi]); !sameSuggestions(got, want[c][qi]) {
					t.Errorf("corpus %d %q:\n got %v\nwant %v", c, segQueries[qi], got, want[c][qi])
					return
				}
			}
		}(r)
	}
	for cycle := 0; cycle < 8; cycle++ {
		for c := range cur {
			next := open(c)
			if next == nil {
				break
			}
			cur[c].Store(next) // the previous engine is now eviction garbage
		}
		runtime.GC() // provoke the finalizers while queries are in flight
	}
	close(stop)
	wg.Wait()
	for c := range cur {
		assertParity(t, "post-evict", segQueries[0], cur[c].Load().Suggest(segQueries[0]), want[c][0])
	}
}

// sameSuggestions is assertParity's comparison as a predicate, for
// goroutines that may not call t.Fatal.
func sameSuggestions(got, want []Suggestion) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.Query != w.Query || g.ResultType != w.ResultType || g.Entities != w.Entities ||
			math.Abs(g.Score-w.Score) > 1e-12*math.Max(math.Abs(w.Score), 1e-300) {
			return false
		}
	}
	return true
}

// TestMappedSuggestAllocsNearHeap guards the point of the zero-copy
// cursor heads, the token memo and the pooled streaming lists: once
// warm, answering from a mapped snapshot allocates about what answering
// from the heap index does (it was 3.2× before them). Workers is 1 and
// corpus and queries are fixed, so the counts repeat.
func TestMappedSuggestAllocsNearHeap(t *testing.T) {
	gen := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 7, Articles: 1500})
	var xml bytes.Buffer
	if _, err := gen.Tree.WriteXML(&xml); err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1}
	heap, err := Open(&xml, opts)
	if err != nil {
		t.Fatal(err)
	}
	mapped := snapReopen(t, heap, opts)
	if !mapped.SnapshotBacked() {
		t.Fatal("engine is not snapshot-backed")
	}
	// Every clean query also runs with a letter dropped from each longer
	// word, which is what widens the variant lists.
	var queries []string
	for _, q := range gen.SampleQueries(3, 40) {
		words := strings.Fields(q)
		for i, w := range words {
			if len(w) > 4 {
				words[i] = w[:2] + w[3:]
			}
		}
		queries = append(queries, q, strings.Join(words, " "))
	}
	perPass := func(e *Engine) float64 {
		pass := func() {
			for _, q := range queries {
				e.Suggest(q)
			}
		}
		pass() // lazy FastSS build, memo and pools warm
		return testing.AllocsPerRun(3, pass)
	}
	h, m := perPass(heap), perPass(mapped)
	t.Logf("allocs per pass of %d queries: heap %.0f, mapped %.0f (%.2fx)", len(queries), h, m, m/h)
	if m > 1.25*h {
		t.Errorf("mapped Suggest allocates %.0f per pass, heap %.0f: %.2fx > 1.25x", m, h, m/h)
	}
}
