package xmltree

import (
	"fmt"
	"strings"
)

// PathID identifies an interned label path (a "node type" in the
// paper's terminology). The zero value InvalidPath is never a real
// path.
type PathID int32

// InvalidPath is the PathID of no path.
const InvalidPath PathID = -1

type pathEntry struct {
	parent PathID
	label  string
	depth  int32
	// full is the memoized "/a/b/c" rendering, built once at Intern.
	full string
}

// PathTable interns label paths as a trie so that (a) equal paths share
// one ID, (b) the ancestor path at any depth is an O(depth) walk, and
// (c) the full "/a/b/c" string is built once, when the path is
// interned, so String never allocates.
//
// The zero value is ready to use.
type PathTable struct {
	entries  []pathEntry
	children map[pathChildKey]PathID
}

type pathChildKey struct {
	parent PathID
	label  string
}

// NewPathTable returns an empty table.
func NewPathTable() *PathTable {
	return &PathTable{children: make(map[pathChildKey]PathID)}
}

// Intern returns the ID for the child path of parent extended with
// label, creating it if necessary. Pass InvalidPath as parent to intern
// a root-level path ("/label").
func (t *PathTable) Intern(parent PathID, label string) PathID {
	if t.children == nil {
		t.children = make(map[pathChildKey]PathID)
	}
	key := pathChildKey{parent, label}
	if id, ok := t.children[key]; ok {
		return id
	}
	depth, prefix := int32(1), ""
	if parent != InvalidPath {
		depth, prefix = t.entries[parent].depth+1, t.entries[parent].full
	}
	id := PathID(len(t.entries))
	t.entries = append(t.entries, pathEntry{parent: parent, label: label, depth: depth,
		full: prefix + "/" + label})
	t.children[key] = id
	return id
}

// Lookup resolves a "/a/b/c" path string to its ID, or InvalidPath if
// it was never interned.
func (t *PathTable) Lookup(path string) PathID {
	labels := splitPath(path)
	id := InvalidPath
	for _, l := range labels {
		next, ok := t.children[pathChildKey{id, l}]
		if !ok {
			return InvalidPath
		}
		id = next
	}
	return id
}

// InternPath interns a full "/a/b/c" path string and returns its ID.
func (t *PathTable) InternPath(path string) PathID {
	id := InvalidPath
	for _, l := range splitPath(path) {
		id = t.Intern(id, l)
	}
	return id
}

func splitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// Depth is the number of labels on path id; root-level paths have
// depth 1, matching the paper's convention that the root node has
// depth 1.
func (t *PathTable) Depth(id PathID) int {
	if id == InvalidPath {
		return 0
	}
	return int(t.entries[id].depth)
}

// Label is the last label of path id.
func (t *PathTable) Label(id PathID) string { return t.entries[id].label }

// Parent is the path one label shorter, or InvalidPath for root-level
// paths.
func (t *PathTable) Parent(id PathID) PathID { return t.entries[id].parent }

// Ancestor returns the prefix of path id at the given depth. It returns
// id itself when depth ≥ Depth(id) and InvalidPath when depth ≤ 0.
func (t *PathTable) Ancestor(id PathID, depth int) PathID {
	if depth <= 0 {
		return InvalidPath
	}
	for id != InvalidPath && int(t.entries[id].depth) > depth {
		id = t.entries[id].parent
	}
	return id
}

// String renders path id as "/a/b/c". It returns the string memoized
// at Intern and does not allocate.
func (t *PathTable) String(id PathID) string {
	if id == InvalidPath {
		return "/"
	}
	return t.entries[id].full
}

// Len is the number of interned paths.
func (t *PathTable) Len() int { return len(t.entries) }

// Clone returns an independent copy of the table. Interning into the
// clone never touches the receiver, and because the table is
// append-only the clone assigns every already-interned path the same
// ID, so indexes built against the original keep resolving against the
// clone. This is what lets an immutable published table serve readers
// while a writer extends a private copy. The clone shares the memoized
// path strings.
func (t *PathTable) Clone() *PathTable {
	c := &PathTable{
		entries:  make([]pathEntry, len(t.entries)),
		children: make(map[pathChildKey]PathID, len(t.children)),
	}
	copy(c.entries, t.entries)
	for k, v := range t.children {
		c.children[k] = v
	}
	return c
}

// Export serializes the table as parallel parent/label slices indexed
// by PathID, for persistence. The inverse is ImportPathTable.
func (t *PathTable) Export() (parents []int32, labels []string) {
	parents = make([]int32, len(t.entries))
	labels = make([]string, len(t.entries))
	for i, e := range t.entries {
		parents[i] = int32(e.parent)
		labels[i] = e.label
	}
	return parents, labels
}

// ImportPathTable rebuilds a table from Export's output. Entries must
// be topologically ordered (parents before children), which Export
// guarantees.
func ImportPathTable(parents []int32, labels []string) (*PathTable, error) {
	if len(parents) != len(labels) {
		return nil, fmt.Errorf("xmltree: mismatched path table slices (%d vs %d)", len(parents), len(labels))
	}
	t := NewPathTable()
	for i := range parents {
		p := PathID(parents[i])
		if p >= PathID(i) && p != InvalidPath {
			return nil, fmt.Errorf("xmltree: path entry %d references later parent %d", i, p)
		}
		if id := t.Intern(p, labels[i]); id != PathID(i) {
			return nil, fmt.Errorf("xmltree: duplicate path entry %d", i)
		}
	}
	return t, nil
}
