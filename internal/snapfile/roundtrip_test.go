package snapfile

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

const sampleXML = `<dblp>
  <article><author>jonathan rose</author><title>fpga architecture synthesis</title><year>2001</year></article>
  <article><author>mary smith</author><title>database indexing structures</title><year>2005</year></article>
  <article><author>alan jones</author><title>keyword search over databases</title><year>2007</year></article>
  <article><author>mary smith</author><title>spelling correction for queries</title></article>
</dblp>`

func buildSample(t *testing.T) *invindex.Index {
	t.Helper()
	tree, err := xmltree.Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	ix := invindex.BuildStored(tree, tokenizer.Options{})
	ix.Compact()
	return ix
}

func writeSample(t *testing.T, ix *invindex.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.seg")
	tab := ix.ExportTables()
	if err := WriteFile(path, &tab); err != nil {
		t.Fatal(err)
	}
	return path
}

// compareSource checks every invindex.Source accessor of got against
// the reference heap index.
func compareSource(t *testing.T, ix *invindex.Index, got invindex.Source) {
	t.Helper()
	if got.NodeCount() != ix.NodeCount() || got.MaxDepth() != ix.MaxDepth() ||
		got.TotalTokens() != ix.TotalTokens() {
		t.Errorf("scalars diverge: %d/%d/%d vs %d/%d/%d",
			got.NodeCount(), got.MaxDepth(), got.TotalTokens(),
			ix.NodeCount(), ix.MaxDepth(), ix.TotalTokens())
	}
	if got.TokenizerOptions() != ix.TokenizerOptions() {
		t.Errorf("tokenizer options diverge")
	}
	if !reflect.DeepEqual(got.VocabList(), ix.VocabList()) {
		t.Fatalf("vocab list diverges")
	}
	gv, wv := got.Vocabulary(), ix.Vocabulary()
	if gv.Total() != wv.Total() || gv.Size() != wv.Size() {
		t.Errorf("vocab totals diverge")
	}
	for _, tok := range append(ix.VocabList(), "nosuchtoken") {
		if gv.Contains(tok) != wv.Contains(tok) || gv.Count(tok) != wv.Count(tok) {
			t.Errorf("vocab entry %q diverges", tok)
		}
		if gv.Prob(tok) != wv.Prob(tok) {
			t.Errorf("Prob(%q): %v vs %v (must be bit-identical)", tok, gv.Prob(tok), wv.Prob(tok))
		}
		if got.DocFreq(tok) != ix.DocFreq(tok) {
			t.Errorf("DocFreq(%q) diverges", tok)
		}
		if !reflect.DeepEqual(got.TypeList(tok), ix.TypeList(tok)) {
			t.Errorf("TypeList(%q): %v vs %v", tok, got.TypeList(tok), ix.TypeList(tok))
		}
		gm := got.MergedListFor([]string{tok})
		wm := ix.MergedListFor([]string{tok})
		for {
			ge, gok := gm.Next()
			we, wok := wm.Next()
			if gok != wok {
				t.Fatalf("merged list of %q: lengths diverge", tok)
			}
			if !gok {
				break
			}
			if !reflect.DeepEqual(ge, we) {
				t.Fatalf("merged list of %q: %+v vs %+v", tok, ge, we)
			}
		}
	}
	gp, wp := got.PathTable(), ix.PathTable()
	if gp.Len() != wp.Len() {
		t.Fatalf("path tables diverge: %d vs %d paths", gp.Len(), wp.Len())
	}
	for p := xmltree.PathID(0); int(p) < wp.Len(); p++ {
		if gp.String(p) != wp.String(p) || got.PathDepth(p) != ix.PathDepth(p) {
			t.Errorf("path %d diverges", p)
		}
		if got.NodesWithPath(p) != ix.NodesWithPath(p) {
			t.Errorf("NodesWithPath(%d) diverges", p)
		}
		if !reflect.DeepEqual(got.SubtreeLensByPath(p), ix.SubtreeLensByPath(p)) {
			t.Errorf("SubtreeLensByPath(%d) diverges", p)
		}
		if !reflect.DeepEqual(got.RootsByPath(p), ix.RootsByPath(p)) {
			t.Errorf("RootsByPath(%d) diverges", p)
		}
		for _, key := range ix.RootsByPath(p) {
			if got.SubtreeLenKey([]byte(key)) != ix.SubtreeLenKey([]byte(key)) {
				t.Errorf("SubtreeLenKey(%q) diverges", key)
			}
		}
	}
	for _, pair := range [][2]string{{"jonathan", "rose"}, {"database", "indexing"}, {"rose", "jonathan"}, {"no", "pair"}} {
		if got.BigramCount(pair[0], pair[1]) != ix.BigramCount(pair[0], pair[1]) {
			t.Errorf("BigramCount(%v) diverges", pair)
		}
	}
	if got.HasStoredText() != ix.HasStoredText() {
		t.Fatalf("stored-text flag diverges")
	}
	for _, code := range []string{"1", "1.2", "1.2.2", "1.9"} {
		d, _ := xmltree.ParseDewey(code)
		if g, w := got.SubtreeText(d, 25), ix.SubtreeText(d, 25); g != w {
			t.Errorf("SubtreeText(%s): %q vs %q", code, g, w)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	ix := buildSample(t)
	path := writeSample(t, ix)
	for _, noMmap := range []bool{false, true} {
		r, err := Open(path, OpenOptions{NoMmap: noMmap})
		if err != nil {
			t.Fatalf("open (noMmap=%v): %v", noMmap, err)
		}
		if r.Mmapped() == noMmap {
			t.Errorf("Mmapped()=%v under noMmap=%v", r.Mmapped(), noMmap)
		}
		compareSource(t, ix, r)
		if err := r.Verify(); err != nil {
			t.Errorf("verify: %v", err)
		}
		mat, err := r.Materialize()
		if err != nil {
			t.Fatalf("materialize: %v", err)
		}
		compareSource(t, ix, mat)
		if !mat.Compacted() {
			t.Error("materialized index should be compacted")
		}
		r.Close()
	}
}

// TestRoundTripUncompacted covers the raw-postings export path and an
// index without stored text.
func TestRoundTripUncompacted(t *testing.T) {
	tree, err := xmltree.Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	ix := invindex.Build(tree, tokenizer.Options{MinLength: 2})
	path := filepath.Join(t.TempDir(), "raw.seg")
	tab := ix.ExportTables()
	if err := WriteFile(path, &tab); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.HasStoredText() {
		t.Error("stored-text flag set without stored text")
	}
	compareSource(t, ix, r)
}

// TestOpenRejectsCorruption flips or truncates bytes across the whole
// file and requires every damaged variant to fail at Open or at
// Verify — never to panic.
func TestOpenRejectsCorruption(t *testing.T) {
	ix := buildSample(t)
	path := writeSample(t, ix)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p, OpenOptions{})
		if err != nil {
			return // rejected at open: good
		}
		defer r.Close()
		if err := r.Verify(); err == nil {
			t.Errorf("%s: corruption passed Open and Verify", name)
		}
	}

	for _, n := range []int{0, 7, headerLen - 1, len(orig) / 2, len(orig) - 1} {
		check("truncated", orig[:n])
	}
	step := len(orig)/64 + 1
	for off := 0; off < len(orig); off += step {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x41
		check("byte flipped", mut)
	}
}

// TestProbDenominator pins the epsilon behaviour replicated from
// tokenizer.Vocabulary.
func TestProbDenominator(t *testing.T) {
	ix := buildSample(t)
	r, err := Open(writeSample(t, ix), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	v := r.Vocabulary()
	want := 1 / (float64(v.Total()) + float64(v.Size()))
	if got := v.Prob("nosuchtoken"); math.Abs(got-want) != 0 {
		t.Errorf("unknown-term epsilon %v want %v", got, want)
	}
}
