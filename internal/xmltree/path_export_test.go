package xmltree

import (
	"reflect"
	"strings"
	"testing"
)

func TestPathTableExportImportRoundtrip(t *testing.T) {
	pt := NewPathTable()
	a := pt.InternPath("/dblp/article")
	b := pt.InternPath("/dblp/article/title")
	c := pt.InternPath("/dblp/inproceedings")

	parents, labels := pt.Export()
	got, err := ImportPathTable(parents, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != pt.Len() {
		t.Fatalf("len %d want %d", got.Len(), pt.Len())
	}
	for _, id := range []PathID{a, b, c} {
		if got.String(id) != pt.String(id) {
			t.Errorf("path %d: %q vs %q", id, got.String(id), pt.String(id))
		}
		if got.Depth(id) != pt.Depth(id) {
			t.Errorf("path %d depth", id)
		}
	}
	// IDs must be stable: looking up by string returns the same ID.
	if got.Lookup("/dblp/article/title") != b {
		t.Error("IDs shifted across export/import")
	}
}

func TestImportPathTableErrors(t *testing.T) {
	if _, err := ImportPathTable([]int32{0}, []string{"a", "b"}); err == nil {
		t.Error("mismatched slices accepted")
	}
	// Entry referencing a later parent violates topological order.
	if _, err := ImportPathTable([]int32{1, int32(InvalidPath)}, []string{"a", "b"}); err == nil {
		t.Error("forward parent reference accepted")
	}
	// Duplicate entry: interning the same (parent, label) twice cannot
	// produce two IDs.
	if _, err := ImportPathTable(
		[]int32{int32(InvalidPath), int32(InvalidPath)},
		[]string{"a", "a"},
	); err == nil {
		t.Error("duplicate entry accepted")
	}
}

func TestPathTableDepthAndSplitEdges(t *testing.T) {
	pt := NewPathTable()
	if pt.Depth(InvalidPath) != 0 {
		t.Error("InvalidPath depth != 0")
	}
	if pt.Lookup("/") != InvalidPath {
		t.Error("root-only lookup should be InvalidPath")
	}
	if pt.Lookup("") != InvalidPath {
		t.Error("empty lookup should be InvalidPath")
	}
	id := pt.InternPath("a/b") // unanchored form is tolerated
	if pt.String(id) != "/a/b" {
		t.Errorf("String=%q", pt.String(id))
	}
}

func TestIsLeaf(t *testing.T) {
	tr := NewTree("r")
	child := tr.AddChild(tr.Root, "c", "text")
	if tr.Root.IsLeaf() {
		t.Error("root with child reported leaf")
	}
	if !child.IsLeaf() {
		t.Error("childless node not leaf")
	}
}

func TestSerializeRoundtripWithAttrs(t *testing.T) {
	in := `<bib size="large"><paper id="1"><title>a &amp; b &lt;c&gt;</title></paper></bib>`
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	n, err := tr.WriteXML(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(sb.Len()) {
		t.Errorf("WriteXML reported %d bytes, wrote %d", n, sb.Len())
	}
	// Reparse the serialized form: the trees must be identical.
	tr2, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v (serialized: %s)", err, sb.String())
	}
	var walk func(a, b *Node) bool
	walk = func(a, b *Node) bool {
		if a.Label != b.Label || a.Text != b.Text || len(a.Children) != len(b.Children) {
			return false
		}
		for i := range a.Children {
			if !walk(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	if !walk(tr.Root, tr2.Root) {
		t.Errorf("roundtrip mismatch:\nin:  %s\nout: %s", in, sb.String())
	}
	if !reflect.DeepEqual(tr.ComputeStats(), tr2.ComputeStats()) {
		t.Error("stats diverge after roundtrip")
	}
}

// String returns the path memoized at Intern: no allocation, on the
// table and on its clones alike.
func TestPathTableStringAllocFree(t *testing.T) {
	pt := NewPathTable()
	id := pt.InternPath("/dblp/article/title")
	cl := pt.Clone()
	if cl.String(id) != "/dblp/article/title" {
		t.Fatalf("clone renders %q", cl.String(id))
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = pt.String(id) }); n != 0 {
		t.Fatalf("String allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = cl.String(id) }); n != 0 {
		t.Fatalf("clone String allocates %v per call", n)
	}
	_ = sink
}
