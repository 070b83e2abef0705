package fastss

import (
	"reflect"
	"sync"
	"testing"
)

// The original must not see the clone's word, whether or not it had
// answered (and memoized) a query before the clone was taken: a cold
// original's empty Search memo survives Add, so a clone sharing it
// would leak its answers back.
func TestCloneCopyOnWrite(t *testing.T) {
	for _, warm := range []bool{true, false} {
		ix := Build([]string{"tree", "trie", "clean"}, Config{MaxErrors: 1})
		want := BruteForce([]string{"tree", "trie", "clean"}, "tree", 1)
		if warm {
			ix.Search("tree")
		}

		c := ix.Clone()
		c.Add("trees")
		found := false
		for _, m := range c.Search("tree") {
			if m.Word == "trees" {
				found = true
			}
		}
		if !found {
			t.Errorf("warm=%v: clone does not find its own added word", warm)
		}
		if ix.Size() != 3 {
			t.Errorf("warm=%v: original grew to %d words", warm, ix.Size())
		}
		if c.Size() != 4 {
			t.Errorf("warm=%v: clone size=%d want 4", warm, c.Size())
		}
		if got := ix.Search("tree"); !reflect.DeepEqual(got, want) {
			t.Errorf("warm=%v: original results changed after clone.Add:\n got=%v\nwant=%v", warm, got, want)
		}
	}
}

// Two clones of the same parent share bucket slices; an Add on one must
// not leak into the other (the capped-slice contract: append always
// reallocates).
func TestCloneSiblingsIndependent(t *testing.T) {
	ix := Build([]string{"tree", "trie"}, Config{MaxErrors: 1})
	c1 := ix.Clone()
	c2 := ix.Clone()
	c1.Add("treat")
	c2.Add("crews")

	for _, m := range c1.Search("crews") {
		if m.Word == "crews" {
			t.Error("c2's word leaked into c1")
		}
	}
	for _, m := range c2.Search("treat") {
		if m.Word == "treat" {
			t.Error("c1's word leaked into c2")
		}
	}
}

// Search on the original must be safe while a clone is being extended
// (run under -race).
func TestCloneConcurrentSearch(t *testing.T) {
	ix := Build([]string{"tree", "trie", "clean", "clear"}, Config{MaxErrors: 1})
	want := ix.Search("tree")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := ix.Search("tree"); !reflect.DeepEqual(got, want) {
					t.Error("search diverged during concurrent clone growth")
					return
				}
			}
		}()
	}
	c := ix.Clone()
	for _, w := range []string{"trees", "tread", "cleans", "crews", "tram"} {
		c.Add(w)
	}
	close(stop)
	wg.Wait()
}
