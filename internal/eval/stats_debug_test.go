package eval

import (
	"fmt"
	"testing"
)

func TestDebugStats(t *testing.T) {
	w := NewWorkbench(WorkbenchConfig{Seed: 42, DBLPArticles: 20000, WikiArticles: 2000, QueriesPerSet: 30})
	for _, set := range []string{SetDBLPRand, SetINEXRule} {
		e := w.XClean(set, nil)
		var tot Stats2
		for _, q := range w.Sets[set] {
			_, s := e.SuggestDetailed(q.Dirty)
			tot.post += s.PostingsRead
			tot.sub += s.Subtrees
			tot.cand += s.CandidatesSeen
			tot.typ += s.TypeComputations
		}
		n := len(w.Sets[set])
		fmt.Printf("%s: queries=%d avg postings=%d subtrees=%d candidates=%d typecomps=%d\n",
			set, n, tot.post/n, tot.sub/n, tot.cand/n, tot.typ/n)
	}
}

type Stats2 struct{ post, sub, cand, typ int }
