package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xclean/internal/xmltree"
)

// Direct unit tests for mergeAccumulators — the partial-table fold
// shared by the in-process parallel scan and (via MergePartials) the
// cluster coordinator. The Workers:1-vs-N differential tests cover it
// end-to-end; these pin the fold and re-prune rules in isolation.

func mkAccum(key string, weightOverN, sum float64, entities int, witness string) *accum {
	return &accum{
		key:         key,
		words:       []string{key},
		sum:         sum,
		weightOverN: weightOverN,
		entities:    entities,
		witness:     witness,
	}
}

func tableOf(as ...*accum) *accumulators {
	t := newAccumulators(0, EvictLowestEstimate)
	for _, a := range as {
		t.m[a.key] = a
	}
	return t
}

func sortedKeys(t *accumulators) []string {
	keys := make([]string, 0, len(t.m))
	for k := range t.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestMergeAccumulatorsEmptyAndNilParts(t *testing.T) {
	merged, dropped := mergeAccumulators(nil, 10)
	if merged.len() != 0 || dropped != 0 {
		t.Fatalf("nil parts: len=%d dropped=%d", merged.len(), dropped)
	}
	merged, dropped = mergeAccumulators([]*accumulators{nil, tableOf(), nil}, 10)
	if merged.len() != 0 || dropped != 0 {
		t.Fatalf("empty parts: len=%d dropped=%d", merged.len(), dropped)
	}
}

func TestMergeAccumulatorsSingletonPartition(t *testing.T) {
	a := mkAccum("a", 0.5, 2.0, 3, "w1")
	b := mkAccum("b", 0.25, 1.0, 1, "w2")
	merged, dropped := mergeAccumulators([]*accumulators{tableOf(a, b)}, 10)
	if dropped != 0 {
		t.Fatalf("singleton partition dropped %d", dropped)
	}
	if got := sortedKeys(merged); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("keys = %v", got)
	}
	if m := merged.m["a"]; m.sum != 2.0 || m.entities != 3 || m.witness != "w1" {
		t.Fatalf("a = %+v", m)
	}
}

func TestMergeAccumulatorsFoldsPartialSums(t *testing.T) {
	// The same candidate in three parts: sums, background sums, and
	// entity counts add; the witness becomes the smallest Dewey key
	// (document order), and an empty witness never wins.
	p1 := tableOf(&accum{key: "c", sum: 1.0, bgMatched: 0.1, entities: 2, witness: ""})
	p2 := tableOf(&accum{key: "c", sum: 2.0, bgMatched: 0.2, entities: 3, witness: "kB"})
	p3 := tableOf(&accum{key: "c", sum: 4.0, bgMatched: 0.4, entities: 5, witness: "kA"})
	merged, dropped := mergeAccumulators([]*accumulators{p1, p2, p3}, 0)
	if dropped != 0 || merged.len() != 1 {
		t.Fatalf("len=%d dropped=%d", merged.len(), dropped)
	}
	m := merged.m["c"]
	if m.sum != 7.0 {
		t.Fatalf("sum = %g, want 7", m.sum)
	}
	wantBg := float64(0.1)
	wantBg += 0.2
	wantBg += 0.4 // part-order float addition, matching the fold
	if m.bgMatched != wantBg {
		t.Fatalf("bgMatched = %g, want %g", m.bgMatched, wantBg)
	}
	if m.entities != 10 {
		t.Fatalf("entities = %d, want 10", m.entities)
	}
	if m.witness != "kA" {
		t.Fatalf("witness = %q, want kA (document-order minimum)", m.witness)
	}
}

func TestMergeAccumulatorsGammaReprune(t *testing.T) {
	// Distinct candidates across two parts, union exceeding γ=2: the
	// lowest-estimate candidates are dropped, and the drop count comes
	// back for the Evictions stat.
	p1 := tableOf(
		mkAccum("high", 1.0, 4.0, 1, ""), // estimate 4
		mkAccum("low", 1.0, 1.0, 1, ""),  // estimate 1
	)
	p2 := tableOf(
		mkAccum("mid", 1.0, 3.0, 1, ""),    // estimate 3
		mkAccum("lower", 1.0, 0.5, 1, ""),  // estimate 0.5
		mkAccum("higher", 1.0, 5.0, 1, ""), // estimate 5
	)
	merged, dropped := mergeAccumulators([]*accumulators{p1, p2}, 2)
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if got := sortedKeys(merged); len(got) != 2 || got[0] != "high" || got[1] != "higher" {
		t.Fatalf("survivors = %v, want [high higher]", got)
	}

	// A limit at least the union size re-prunes nothing.
	p3 := tableOf(mkAccum("a", 1.0, 1.0, 1, ""), mkAccum("b", 1.0, 2.0, 1, ""))
	merged, dropped = mergeAccumulators([]*accumulators{p3}, 2)
	if dropped != 0 || merged.len() != 2 {
		t.Fatalf("at-limit: len=%d dropped=%d", merged.len(), dropped)
	}

	// limit ≤ 0 means unlimited: nothing is dropped however large.
	p4 := tableOf(mkAccum("a", 1.0, 1.0, 1, ""), mkAccum("b", 1.0, 2.0, 1, ""),
		mkAccum("c", 1.0, 3.0, 1, ""))
	merged, dropped = mergeAccumulators([]*accumulators{p4}, 0)
	if dropped != 0 || merged.len() != 3 {
		t.Fatalf("unlimited: len=%d dropped=%d", merged.len(), dropped)
	}
}

func TestMergeAccumulatorsRepruneTieBreaksByKey(t *testing.T) {
	// Equal estimates: the re-prune keeps the smallest keys, matching
	// the deterministic victim order of the scan-time eviction rule.
	p := tableOf(
		mkAccum("c", 1.0, 1.0, 1, ""),
		mkAccum("a", 1.0, 1.0, 1, ""),
		mkAccum("d", 1.0, 1.0, 1, ""),
		mkAccum("b", 1.0, 1.0, 1, ""),
	)
	merged, dropped := mergeAccumulators([]*accumulators{p}, 2)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if got := sortedKeys(merged); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("survivors = %v, want [a b]", got)
	}
}

func TestMergeAccumulatorsSumsCrossPartEstimates(t *testing.T) {
	// A candidate weak in every part but present in all must outrank a
	// candidate strong in one part only when its merged estimate is
	// larger — the re-prune must act on merged sums, not per-part ones.
	parts := []*accumulators{
		tableOf(mkAccum("spread", 1.0, 2.0, 1, ""), mkAccum("solo", 1.0, 3.0, 1, "")),
		tableOf(&accum{key: "spread", words: []string{"spread"}, weightOverN: 1.0, sum: 2.0, entities: 1}),
	}
	merged, dropped := mergeAccumulators(parts, 1)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if _, ok := merged.m["spread"]; !ok {
		t.Fatalf("survivor = %v, want spread (merged estimate 4 > 3)", sortedKeys(merged))
	}
}

// boxedHeap is estimateHeap behind container/heap's interface: the
// reference that the typed push and pop must follow step for step.
type boxedHeap []pqEntry

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].est < h[j].est }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(pqEntry)) }
func (h *boxedHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestEstimateHeapMatchesContainerHeap drives random push, pop and
// stale-skip sequences (victim's loop: pop while the head is stale)
// through the typed heap and through container/heap, and requires the
// same slice after every step. Estimates come from a small range so
// ties, where only the exact sift order decides positions, are common.
func TestEstimateHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var typed estimateHeap
		var ref boxedHeap
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || len(typed) == 0:
				e := pqEntry{key: fmt.Sprint(step), seq: step, version: int64(rng.Intn(3)), est: float64(rng.Intn(16))}
				typed.push(e)
				heap.Push(&ref, e)
			case op == 1:
				got, want := typed.pop(), heap.Pop(&ref).(pqEntry)
				if got != want {
					t.Fatalf("trial %d step %d: pop %+v, container/heap %+v", trial, step, got, want)
				}
			default:
				for len(typed) > 0 && typed[0].version == 0 {
					typed.pop()
					heap.Pop(&ref)
				}
			}
			if !reflect.DeepEqual([]pqEntry(typed), []pqEntry(ref)) {
				t.Fatalf("trial %d step %d: heaps diverge\ntyped %v\nref   %v", trial, step, typed, ref)
			}
		}
	}
}

// TestAccumulatorRejectionAllocatesNothing: once the table is full, a
// newcomer whose estimate is not above the victim's is turned away
// before anything is built for it — no allocation, one eviction.
func TestAccumulatorRejectionAllocatesNothing(t *testing.T) {
	const limit = 64
	acc := newAccumulators(limit, EvictLowestEstimate)
	p := xmltree.PathID(1)
	words, choice, witness := []string{"w", "v"}, []int{0, 1}, []byte("root")
	for i := 0; i < limit; i++ {
		acc.add(fmt.Sprintf("k%d", i), words, choice, p, 1, float64(1+i), 0, 1, witness)
	}
	add := func() *accum { return acc.add("newcomer", words, choice, p, 1, 0.5, 0, 1, witness) }
	if a := add(); a != nil || acc.evictions != 1 || acc.len() != limit {
		t.Fatalf("rejection: got %v, evictions %d, len %d; want nil, 1, %d", a, acc.evictions, acc.len(), limit)
	}
	if n := testing.AllocsPerRun(100, func() { add() }); n != 0 {
		t.Errorf("rejecting a newcomer allocates %.1f times, want 0", n)
	}
	if _, ok := acc.m["newcomer"]; ok {
		t.Error("rejected newcomer was admitted")
	}
}

// TestEvictionRecyclesSlabs: admissions that evict a victim reuse the
// victim's accumulator and, when long enough, its words and choice, so
// N ≫ γ admissions leave the slabs O(γ) rather than O(N), and every
// survivor still holds its own candidate's data.
func TestEvictionRecyclesSlabs(t *testing.T) {
	const limit, n = 16, 5000
	for _, policy := range []EvictionPolicy{EvictLowestEstimate, EvictFIFO} {
		acc := newAccumulators(limit, policy)
		wordsOf := func(i int) []string { return strings.Fields(strings.Repeat(fmt.Sprintf("w%d ", i), 1+i%3)) }
		for i := 0; i < n; i++ {
			w := wordsOf(i)
			choice := make([]int, len(w))
			for j := range choice {
				choice[j] = i
			}
			// Rising sums: every newcomer beats the current victim.
			acc.add(fmt.Sprintf("k%d", i), w, choice, 1, 1, float64(1+i), 0, 1, []byte("root"))
		}
		if acc.len() != limit || acc.evictions != n-limit {
			t.Fatalf("policy %v: len %d, evictions %d; want %d, %d", policy, acc.len(), acc.evictions, limit, n-limit)
		}
		// At most one accumulator carving per slot and, per slot, one
		// words/choice carving per length increase (lengths 1..3).
		if c := cap(acc.slab); c > 2*limit {
			t.Errorf("policy %v: accumulator slab cap %d after %d admissions, want ≤ %d", policy, c, n, 2*limit)
		}
		if c := cap(acc.words); c > 12*limit {
			t.Errorf("policy %v: words slab cap %d after %d admissions, want ≤ %d", policy, c, n, 12*limit)
		}
		if c := cap(acc.choices); c > 12*limit {
			t.Errorf("policy %v: choice slab cap %d after %d admissions, want ≤ %d", policy, c, n, 12*limit)
		}
		for i := n - limit; i < n; i++ {
			a := acc.m[fmt.Sprintf("k%d", i)]
			if a == nil {
				t.Fatalf("policy %v: k%d evicted", policy, i)
			}
			if w := wordsOf(i); !reflect.DeepEqual(a.words, w) || len(a.choice) != len(w) || a.choice[0] != i || a.sum != float64(1+i) || a.version != 0 {
				t.Errorf("policy %v: k%d holds words %v choice %v sum %v version %d", policy, i, a.words, a.choice, a.sum, a.version)
			}
		}
	}
}

// TestSlabsOutliveRelease: accumulators carved from a table's slabs
// stay intact after the table is released and its pooled storage is
// reused, which is what lets mergeAccumulators rehome them.
func TestSlabsOutliveRelease(t *testing.T) {
	acc := getAccumulators(0, EvictLowestEstimate)
	var kept []*accum
	for i := 0; i < 40; i++ { // several slabs of each kind
		kept = append(kept, acc.add(fmt.Sprintf("k%d", i), []string{fmt.Sprint(i), "x"}, []int{i, 1}, 1, 1, 1, 0, 1, nil))
	}
	acc.release()
	next := getAccumulators(0, EvictLowestEstimate)
	for i := 0; i < 40; i++ {
		next.add(fmt.Sprintf("j%d", i), []string{"y", "z"}, []int{7, 7}, 2, 1, 1, 0, 1, nil)
	}
	next.release()
	for i, a := range kept {
		if a.key != fmt.Sprintf("k%d", i) || a.words[0] != fmt.Sprint(i) || a.choice[0] != i {
			t.Fatalf("accumulator %d clobbered after release: %+v", i, a)
		}
	}
}
