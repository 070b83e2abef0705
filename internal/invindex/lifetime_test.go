package invindex_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"xclean/internal/invindex"
	"xclean/internal/snapfile"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// lifetimeTree is bushy and four levels deep with a small vocabulary,
// so every token's list spans several compression blocks and a depth-2
// subtree holds several postings of several variants.
func lifetimeTree(seed int64, articles int) *xmltree.Tree {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"query", "index", "search", "ranking", "xml", "keyword", "cleaning", "model"}
	pick := func() string { return words[rng.Intn(len(words))] }
	tr := xmltree.NewTree("db")
	for i := 0; i < articles; i++ {
		art := tr.AddChild(tr.Root, "article", "")
		tr.AddChild(art, "title", pick()+" "+pick())
		body := tr.AddChild(art, "body", pick())
		for s := 0; s < 1+rng.Intn(3); s++ {
			sec := tr.AddChild(body, "sec", pick())
			tr.AddChild(sec, "p", pick()+" "+pick()+" "+pick())
		}
	}
	return tr
}

// held is one entry a caller is still entitled to read: the alias as
// the list handed it out, and a clone taken on receipt.
type held struct {
	alias invindex.Entry
	code  xmltree.Dewey
}

// trackedList drives one MergedList and keeps every alias for exactly
// its contractual lifetime.
type trackedList struct {
	name string
	m    *invindex.MergedList
	live []held
}

func (l *trackedList) hold(e invindex.Entry) held {
	h := held{alias: e, code: e.Dewey.Clone()}
	l.live = append(l.live, h)
	return h
}

// expire is called immediately before a moving call — the last moment
// the held aliases are valid — and checks none has been written over.
func (l *trackedList) expire(t *testing.T, step string) {
	t.Helper()
	for _, h := range l.live {
		if h.alias.Dewey.Compare(h.code) != 0 {
			t.Fatalf("%s before %s: held entry of %q reads %v, was %v on receipt",
				l.name, step, h.alias.Token, h.alias.Dewey, h.code)
		}
	}
	l.live = l.live[:0]
}

func sameEntry(a, b held) bool {
	x, y := a.alias, b.alias
	return a.code.Compare(b.code) == 0 && x.Token == y.Token && x.TokenIdx == y.TokenIdx &&
		x.Path == y.Path && x.TF == y.TF && x.NodeLen == y.NodeLen
}

// TestEntryLifetimeLockStep drives a slice-backed, a compacted and a
// snapshot-reader-backed MergedList over one corpus with one seeded
// random sequence of Next / CurPos / SkipTo / CollectSubtree. Every
// code is cloned on receipt and its alias kept until the next moving
// call on that list, where alias and clone must still agree (the Entry
// lifetime); the three lists must agree entry for entry throughout.
// Streamed lists are released and their storage reused between
// sequences, except every fourth, which is left to the collector.
func TestEntryLifetimeLockStep(t *testing.T) {
	tr := lifetimeTree(7, 400)
	raw := invindex.Build(tr, tokenizer.Options{})
	comp := invindex.Build(tr, tokenizer.Options{})
	comp.Compact()
	tab := comp.ExportTables()
	path := filepath.Join(t.TempDir(), "lifetime.seg")
	if err := snapfile.WriteFile(path, &tab); err != nil {
		t.Fatal(err)
	}
	rd, err := snapfile.Open(path, snapfile.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	vocab := raw.VocabList()
	rng := rand.New(rand.NewSource(11))
	for seq := 0; seq < 60; seq++ {
		tokens := []string{"nosuchtoken"}
		for _, i := range rng.Perm(len(vocab))[:1+rng.Intn(4)] {
			tokens = append(tokens, vocab[i])
		}
		lists := []*trackedList{
			{name: "slice", m: raw.MergedListFor(tokens)},
			{name: "compacted", m: comp.MergedListFor(tokens)},
			{name: "reader", m: rd.MergedListFor(tokens)},
		}
		// each runs one op on all three lists and compares what it
		// yields: an ok flag and the entries now held.
		each := func(step string, moving bool, op func(l *trackedList) (bool, []held)) bool {
			var ok0 bool
			var got0 []held
			for i, l := range lists {
				if moving {
					l.expire(t, step)
				}
				ok, got := op(l)
				if i == 0 {
					ok0, got0 = ok, got
					continue
				}
				if ok != ok0 || len(got) != len(got0) {
					t.Fatalf("seq %d %s: %s yields ok=%v, %d entries; slice ok=%v, %d",
						seq, step, l.name, ok, len(got), ok0, len(got0))
				}
				for j := range got {
					if !sameEntry(got[j], got0[j]) {
						t.Fatalf("seq %d %s: %s entry %d is %v/%s, slice has %v/%s",
							seq, step, l.name, j, got[j].code, got[j].alias.Token, got0[j].code, got0[j].alias.Token)
					}
				}
			}
			return ok0
		}
		one := func(l *trackedList, e invindex.Entry, ok bool) (bool, []held) {
			if !ok {
				return false, nil
			}
			return true, []held{l.hold(e)}
		}
		// head is a private copy of the current head's code: targets and
		// subtree roots are derived from it, never from an alias.
		head := func() (xmltree.Dewey, bool) {
			e, ok := lists[0].m.CurPos()
			return e.Dewey.Clone(), ok
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(4) {
			case 0:
				each(fmt.Sprintf("step %d Next", step), true, func(l *trackedList) (bool, []held) {
					e, ok := l.m.Next()
					return one(l, e, ok)
				})
			case 1:
				each(fmt.Sprintf("step %d CurPos", step), false, func(l *trackedList) (bool, []held) {
					e, ok := l.m.CurPos()
					return one(l, e, ok)
				})
			case 2:
				target, ok := head()
				if !ok {
					break
				}
				target[len(target)-1] += uint32(rng.Intn(3))
				if rng.Intn(3) == 0 {
					target = target.Truncate(2)
					target[1] += uint32(rng.Intn(4))
				}
				each(fmt.Sprintf("step %d SkipTo(%v)", step, target), true, func(l *trackedList) (bool, []held) {
					e, ok := l.m.SkipTo(target)
					return one(l, e, ok)
				})
			default:
				g, ok := head()
				if !ok {
					break
				}
				g = g.Truncate(2)
				each(fmt.Sprintf("step %d CollectSubtree(%v)", step, g), true, func(l *trackedList) (bool, []held) {
					var got []held
					l.m.CollectSubtree(g, func(e invindex.Entry) { got = append(got, l.hold(e)) })
					return true, got
				})
			}
			if lists[0].m.Exhausted() {
				break
			}
		}
		for _, l := range lists {
			l.expire(t, "Release")
			if l.m.Exhausted() != lists[0].m.Exhausted() {
				t.Fatalf("seq %d: %s exhaustion diverges", seq, l.name)
			}
			if seq%4 != 3 {
				l.m.Release()
			}
		}
	}
}
