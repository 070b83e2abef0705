package invindex

import (
	"testing"

	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// buildSample constructs:
//
//	a (1)
//	├── c (1.1)
//	│   ├── x (1.1.1) "tree tree icde"
//	│   └── x (1.1.2) "tree"
//	└── d (1.2)
//	    └── x (1.2.1) "icde trie"
func buildSample() *xmltree.Tree {
	t := xmltree.NewTree("a")
	c := t.AddChild(t.Root, "c", "")
	t.AddChild(c, "x", "tree tree icde")
	t.AddChild(c, "x", "tree")
	d := t.AddChild(t.Root, "d", "")
	t.AddChild(d, "x", "icde trie")
	return t
}

func TestBuildPostings(t *testing.T) {
	tr := buildSample()
	ix := Build(tr, tokenizer.Options{})

	pl := ix.Postings("tree")
	if len(pl) != 2 {
		t.Fatalf("tree postings=%d want 2", len(pl))
	}
	if pl[0].Dewey.String() != "1.1.1" || pl[0].TF != 2 || pl[0].NodeLen != 3 {
		t.Errorf("posting 0 = %+v", pl[0])
	}
	if pl[1].Dewey.String() != "1.1.2" || pl[1].TF != 1 || pl[1].NodeLen != 1 {
		t.Errorf("posting 1 = %+v", pl[1])
	}

	// Document order must hold for every token.
	ix.Tokens(func(tok string) {
		pl := ix.Postings(tok)
		for i := 1; i < len(pl); i++ {
			if pl[i-1].Dewey.Compare(pl[i].Dewey) >= 0 {
				t.Errorf("postings of %q out of order", tok)
			}
		}
	})

	if ix.Postings("absent") != nil {
		t.Error("unknown token should have nil postings")
	}
}

func TestBuildStats(t *testing.T) {
	tr := buildSample()
	ix := Build(tr, tokenizer.Options{})

	if ix.NodeCount() != 6 {
		t.Errorf("NodeCount=%d want 6", ix.NodeCount())
	}
	if ix.MaxDepth() != 3 {
		t.Errorf("MaxDepth=%d", ix.MaxDepth())
	}
	if ix.TotalTokens() != 6 {
		t.Errorf("TotalTokens=%d want 6", ix.TotalTokens())
	}
	if ix.DocFreq("tree") != 2 || ix.DocFreq("icde") != 2 || ix.DocFreq("trie") != 1 {
		t.Error("DocFreq wrong")
	}
	if ix.Vocab.Count("tree") != 3 {
		t.Errorf("vocab count tree=%d want 3", ix.Vocab.Count("tree"))
	}
	got := ix.VocabList()
	want := []string{"icde", "tree", "trie"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("VocabList=%v", got)
	}
}

func TestSubtreeLen(t *testing.T) {
	tr := buildSample()
	ix := Build(tr, tokenizer.Options{})

	cases := map[string]int32{
		"1":     6,
		"1.1":   4,
		"1.1.1": 3,
		"1.1.2": 1,
		"1.2":   2,
		"1.2.1": 2,
	}
	for s, want := range cases {
		d, _ := xmltree.ParseDewey(s)
		if got := ix.SubtreeLen(d); got != want {
			t.Errorf("SubtreeLen(%s)=%d want %d", s, got, want)
		}
		if got := ix.SubtreeLenKey(d.AppendKey(nil)); got != want {
			t.Errorf("SubtreeLenKey(%s)=%d want %d", s, got, want)
		}
	}
	unknown, _ := xmltree.ParseDewey("1.9")
	if ix.SubtreeLen(unknown) != 0 {
		t.Error("unknown dewey should have len 0")
	}
}

func TestTypeLists(t *testing.T) {
	tr := buildSample()
	ix := Build(tr, tokenizer.Options{})
	paths := tr.Paths

	f := func(tok, path string) int32 {
		id := paths.Lookup(path)
		if id == xmltree.InvalidPath {
			t.Fatalf("path %s not interned", path)
		}
		for _, tc := range ix.TypeList(tok) {
			if tc.Path == id {
				return tc.F
			}
		}
		return 0
	}

	// tree occurs in two /a/c/x nodes, one /a/c node, one /a node.
	if got := f("tree", "/a/c/x"); got != 2 {
		t.Errorf("f_{/a/c/x}^tree=%d want 2", got)
	}
	if got := f("tree", "/a/c"); got != 1 {
		t.Errorf("f_{/a/c}^tree=%d want 1", got)
	}
	if got := f("tree", "/a"); got != 1 {
		t.Errorf("f_{/a}^tree=%d want 1", got)
	}
	if got := f("tree", "/a/d"); got != 0 {
		t.Errorf("f_{/a/d}^tree=%d want 0", got)
	}
	// icde occurs under both /a/c and /a/d.
	if got := f("icde", "/a"); got != 1 {
		t.Errorf("f_{/a}^icde=%d want 1", got)
	}
	if got := f("icde", "/a/c"); got != 1 {
		t.Errorf("f_{/a/c}^icde=%d want 1", got)
	}
	if got := f("icde", "/a/d"); got != 1 {
		t.Errorf("f_{/a/d}^icde=%d want 1", got)
	}
	if got := f("icde", "/a/c/x"); got != 1 {
		t.Errorf("f_{/a/c/x}^icde=%d want 1", got)
	}
	if got := f("icde", "/a/d/x"); got != 1 {
		t.Errorf("f_{/a/d/x}^icde=%d want 1", got)
	}

	// Type lists must be sorted by path ID.
	ix.Tokens(func(tok string) {
		tl := ix.TypeList(tok)
		for i := 1; i < len(tl); i++ {
			if tl[i-1].Path >= tl[i].Path {
				t.Errorf("type list of %q not sorted", tok)
			}
		}
	})
}

func TestNodesWithPathAndLens(t *testing.T) {
	tr := buildSample()
	ix := Build(tr, tokenizer.Options{})
	cx := tr.Paths.Lookup("/a/c/x")
	if got := ix.NodesWithPath(cx); got != 2 {
		t.Errorf("NodesWithPath(/a/c/x)=%d want 2", got)
	}
	lens := ix.SubtreeLensByPath(cx)
	if len(lens) != 2 || lens[0]+lens[1] != 4 {
		t.Errorf("SubtreeLensByPath=%v", lens)
	}
	d := tr.Paths.Lookup("/a/d")
	if got := ix.NodesWithPath(d); got != 1 {
		t.Errorf("NodesWithPath(/a/d)=%d want 1", got)
	}
}

func TestBuildEmptyTree(t *testing.T) {
	tr := xmltree.NewTree("a")
	ix := Build(tr, tokenizer.Options{})
	if ix.NodeCount() != 1 || ix.TotalTokens() != 0 {
		t.Errorf("count=%d tokens=%d", ix.NodeCount(), ix.TotalTokens())
	}
}
