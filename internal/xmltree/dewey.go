// Package xmltree models an XML document as a rooted, node-labeled,
// ordered tree with Dewey encoding and interned label paths, following
// Section III of the XClean paper (Lu et al., ICDE 2011).
//
// Every XML element, attribute, and text block becomes a node. A node's
// Dewey code is the concatenation of sibling ordinals on the path from
// the root; the root has code "1" and depth 1. Dewey codes decide both
// document order (component-wise numeric comparison) and the
// ancestor-descendant relation (prefix test), each in O(depth).
package xmltree

import (
	"fmt"
	"strconv"
	"strings"
)

// Dewey is the Dewey code of a tree node: the sibling ordinals on the
// path from the root to the node. The root is Dewey{1}. A nil or empty
// Dewey is the code of the (virtual) super-root and is an ancestor of
// every node.
type Dewey []uint32

// ParseDewey parses a dot-separated Dewey code such as "1.2.3".
func ParseDewey(s string) (Dewey, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	d := make(Dewey, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("xmltree: invalid dewey %q: %v", s, err)
		}
		d[i] = uint32(v)
	}
	return d, nil
}

// String renders the code in the conventional dot-separated form.
func (d Dewey) String() string {
	if len(d) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range d {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return b.String()
}

// Depth is the depth of the node identified by d; the root has depth 1.
func (d Dewey) Depth() int { return len(d) }

// Compare orders two codes in document order: -1 if d precedes e, +1 if
// e precedes d, and 0 if they identify the same node. An ancestor
// precedes all of its descendants.
func (d Dewey) Compare(e Dewey) int {
	n := len(d)
	if len(e) < n {
		n = len(e)
	}
	for i := 0; i < n; i++ {
		switch {
		case d[i] < e[i]:
			return -1
		case d[i] > e[i]:
			return 1
		}
	}
	switch {
	case len(d) < len(e):
		return -1
	case len(d) > len(e):
		return 1
	}
	return 0
}

// AncestorOf reports whether d is a proper ancestor of e (d ≺_AD e),
// i.e. d is a strict prefix of e.
func (d Dewey) AncestorOf(e Dewey) bool {
	if len(d) >= len(e) {
		return false
	}
	for i, c := range d {
		if e[i] != c {
			return false
		}
	}
	return true
}

// AncestorOrSelf reports whether d is an ancestor of e or equals e.
func (d Dewey) AncestorOrSelf(e Dewey) bool {
	if len(d) > len(e) {
		return false
	}
	for i, c := range d {
		if e[i] != c {
			return false
		}
	}
	return true
}

// Truncate returns the prefix of d at the given depth (the ancestor of d
// at that depth). If depth ≥ len(d) the code itself is returned. The
// returned slice aliases d; callers must not mutate it.
func (d Dewey) Truncate(depth int) Dewey {
	if depth >= len(d) {
		return d
	}
	if depth < 0 {
		depth = 0
	}
	return d[:depth]
}

// Clone returns an independent copy of d.
func (d Dewey) Clone() Dewey {
	if d == nil {
		return nil
	}
	c := make(Dewey, len(d))
	copy(c, d)
	return c
}

// Child returns a fresh code for the ordinal-th child of d.
func (d Dewey) Child(ordinal uint32) Dewey {
	c := make(Dewey, len(d)+1)
	copy(c, d)
	c[len(d)] = ordinal
	return c
}

// Key encodes d as a string of fixed-width big-endian components.
// Lexicographic byte order on keys coincides with document order, and a
// key-prefix test (at 4-byte granularity) coincides with the
// ancestor-or-self relation, which makes keys suitable for map indexing
// and sorted storage.
func (d Dewey) Key() string {
	var buf [64]byte // depth ≤ 16 encodes without a heap buffer
	return string(d.AppendKey(buf[:0]))
}

// AppendKey appends the Key encoding of d to dst and returns the
// extended slice, so hot paths can build keys in a reused buffer.
func (d Dewey) AppendKey(dst []byte) []byte {
	for _, c := range d {
		dst = append(dst, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return dst
}

// DeweyFromKey decodes a key produced by Key.
func DeweyFromKey(k string) Dewey {
	if len(k)%4 != 0 {
		panic("xmltree: malformed dewey key")
	}
	d := make(Dewey, len(k)/4)
	for i := range d {
		d[i] = uint32(k[4*i])<<24 | uint32(k[4*i+1])<<16 | uint32(k[4*i+2])<<8 | uint32(k[4*i+3])
	}
	return d
}
