package snapfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// FuzzOpen throws arbitrary bytes at the whole open path: header,
// section table, footer, truncation detection, meta/paths parsing,
// and — when a mutant gets that far — the lazy per-access bounds
// checks of every read API plus full materialization. Nothing here may
// panic or allocate proportionally to an unvalidated count; damage
// must surface as an Open error, a Verify error, or a degraded
// ("token absent") read.
func FuzzOpen(f *testing.F) {
	tree, err := xmltree.Parse(strings.NewReader(sampleXML))
	if err != nil {
		f.Fatal(err)
	}
	ix := invindex.BuildStored(tree, tokenizer.Options{})
	ix.Compact()
	seedPath := filepath.Join(f.TempDir(), "seed.seg")
	tab := ix.ExportTables()
	if err := WriteFile(seedPath, &tab); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:headerLen+3])
	f.Add([]byte{})
	f.Add([]byte(magic))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x80
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path, OpenOptions{NoMmap: true})
		if err != nil {
			return
		}
		defer r.Close()
		// The structure parsed: every read API must now be total.
		_ = r.Verify()
		toks := r.VocabList()
		probe := toks
		if len(probe) > 16 {
			probe = probe[:16]
		}
		// Two rounds: the first resolves each token (and memoises the
		// healthy ones), the second is served from the memo.
		for round := 0; round < 2; round++ {
			for _, tok := range append(probe, "absent") {
				v := r.Vocabulary()
				_ = v.Contains(tok)
				_ = v.Count(tok)
				_ = v.Prob(tok)
				_ = r.DocFreq(tok)
				_ = r.TypeList(tok)
				m := r.MergedListFor([]string{tok})
				for i := 0; i < 300; i++ {
					if _, ok := m.Next(); !ok {
						break
					}
				}
				m.Release()
			}
		}
		if n := memoLen(r); n > len(probe) {
			t.Fatalf("memo holds %d entries after probing %d tokens", n, len(probe))
		}
		for p := xmltree.PathID(0); int(p) < r.PathTable().Len(); p++ {
			_ = r.PathDepth(p)
			_ = r.NodesWithPath(p)
			_ = r.SubtreeLensByPath(p)
			for _, key := range r.RootsByPath(p) {
				_ = r.SubtreeLenKey([]byte(key))
			}
		}
		_ = r.BigramCount("a", "b")
		_ = r.SubtreeText(xmltree.Dewey{1}, 64)
		_, _ = r.Materialize()
	})
}
