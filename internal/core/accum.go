package core

import (
	"sort"
	"sync"

	"xclean/internal/xmltree"
)

// accum is the in-memory score accumulator of one candidate query
// (Section V-D).
type accum struct {
	key        string
	words      []string
	choice     []int
	resultType xmltree.PathID
	// sum is Σ_j Π_w p(w|D(r_j)) over matched entities so far.
	sum float64
	// bgMatched is Σ_j Π_w p_bg(w|D(r_j)) over matched entities (exact
	// scoring mode bookkeeping).
	bgMatched float64
	entities  int
	// witness is the Dewey key of the first matched entity root.
	witness string
	// weightOverN is errWeight(C)/N, the static factor of the final
	// score; estimate() = weightOverN · sum is the Hoeffding-style
	// sample estimate used to pick eviction victims.
	weightOverN float64
	seq         int
	// version increments whenever a fresh priority-queue entry is
	// pushed, invalidating older ones.
	version int64
	// pqEst is the estimate recorded by the accumulator's live queue
	// entry; a fresh entry is only pushed when the estimate has grown
	// substantially, keeping queue churn low.
	pqEst float64
}

func (a *accum) estimate() float64 { return a.weightOverN * a.sum }

// pqEntry is a lazily-invalidated min-heap entry; it is stale when the
// accumulator it referenced was merged into (version moved on),
// evicted, or replaced by a new accumulator under the same key (seq
// differs).
type pqEntry struct {
	key     string
	seq     int
	version int64
	est     float64
}

// estimateHeap is a min-heap of queue entries by estimate. push and
// pop are container/heap's Push and Pop specialised to pqEntry — the
// same sift steps in the same order, so the queue evolves identically
// — without boxing every entry into an interface.
type estimateHeap []pqEntry

func (h *estimateHeap) push(e pqEntry) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].est < q[i].est) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *estimateHeap) pop() pqEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q[j2].est < q[j1].est {
			j = j2 // right child
		}
		if !(q[j].est < q[i].est) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// accumulators is the bounded candidate-score table. At most limit
// candidates are tracked; when full, the entry with the lowest
// estimated final score (or the oldest, under FIFO) is discarded.
//
// Victim selection is O(log γ) amortized via a lazy priority queue:
// every insert/merge pushes a fresh (estimate, version) entry and
// stale entries are skipped when popped. Since entity contributions
// are non-negative, estimates only grow, so a live popped entry is a
// true minimum.
//
// Accumulators and their words/choice slices are carved from bump
// slabs the table owns (see carve), so admitting a candidate costs an
// allocation only when a slab fills, and an admission that evicts a
// victim recycles the victim's storage (see newAccum): the slabs hold
// O(γ) accumulators however long the scan. release drops the slabs
// without reusing them: accumulators still in the table when it is
// released stay valid for as long as anything references them.
type accumulators struct {
	limit  int // ≤ 0 means unlimited
	policy EvictionPolicy
	m      map[string]*accum
	seq    int
	pq     estimateHeap
	// fifo lists keys in insertion order for the FIFO ablation policy;
	// entries whose accumulator is gone are skipped lazily.
	fifo []pqEntry
	// evictions counts discarded accumulators.
	evictions int

	slab    []accum
	words   []string
	choices []int
}

// slabStart is the capacity of a table's first slab of each kind;
// every later slab doubles the previous one. Small tables — one per
// segment scan in a stack — then stay small, and a γ-sized table costs
// O(log γ) slab allocations.
const slabStart = 4

// carve returns n zeroed elements from the bump arena *a, starting a
// new arena of twice the old capacity (at least slabStart, at least n)
// when the current one cannot fit them. Earlier carvings keep their
// backing array, so pointers into them stay valid; elements are never
// handed out twice.
func carve[T any](a *[]T, n int) []T {
	s := *a
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(2*cap(s), n, slabStart))
	}
	s = s[:len(s)+n]
	*a = s
	return s[len(s)-n : len(s) : len(s)]
}

func newAccumulators(limit int, policy EvictionPolicy) *accumulators {
	if limit < 0 {
		limit = 0 // unlimited
	}
	return &accumulators{limit: limit, policy: policy, m: make(map[string]*accum)}
}

// accTablePool recycles accumulator tables (the map, queue, and FIFO
// buffers — never the slabs, whose accumulators may outlive the table).
var accTablePool = sync.Pool{New: func() interface{} {
	return &accumulators{m: make(map[string]*accum)}
}}

// getAccumulators is newAccumulators over pooled storage. Tables
// obtained here should be returned with release once their
// accumulators have been extracted.
func getAccumulators(limit int, policy EvictionPolicy) *accumulators {
	if limit < 0 {
		limit = 0 // unlimited
	}
	t := accTablePool.Get().(*accumulators)
	t.limit = limit
	t.policy = policy
	t.seq = 0
	t.evictions = 0
	return t
}

// release returns the table's storage to the pool. The accumulators it
// held remain valid — only the table's own references, slabs included,
// are dropped.
func (t *accumulators) release() {
	clear(t.m)
	t.pq = t.pq[:0]
	t.fifo = t.fifo[:0]
	t.slab, t.words, t.choices = nil, nil, nil
	accTablePool.Put(t)
}

// add merges one subtree's contribution for the candidate identified
// by key. The caller interns key (the scan's type cache holds one
// string per candidate), so the table stores it without copying;
// witness is the first matched root's key bytes and is copied only if
// the accumulator records it. A brand-new candidate is tested against
// the γ bound before anything is built for it: rejection allocates
// nothing. add returns the accumulator, or nil if the candidate was
// rejected because the table is full and its estimate is the lowest.
func (t *accumulators) add(
	key string,
	words []string,
	choice []int,
	resultType xmltree.PathID,
	weightOverN float64,
	sum float64,
	bgMatched float64,
	entities int,
	witness []byte,
) *accum {
	if a, ok := t.m[key]; ok {
		a.sum += sum
		a.bgMatched += bgMatched
		a.entities += entities
		if a.witness == "" {
			a.witness = string(witness)
		}
		// Refresh the queue entry only when the estimate doubled: the
		// stale entry under-estimates by at most 2×, a bounded error in
		// an already-heuristic victim rule, and the queue stays small.
		if t.limit > 0 && t.policy == EvictLowestEstimate && a.estimate() > 2*a.pqEst {
			a.version++
			a.pqEst = a.estimate()
			t.pq.push(pqEntry{key: a.key, seq: a.seq, version: a.version, est: a.pqEst})
		}
		return a
	}
	seq := t.seq
	t.seq++
	var reuse *accum
	if t.limit > 0 && len(t.m) >= t.limit {
		victim := t.victim()
		// weightOverN*sum is exactly the newcomer's estimate().
		if t.policy == EvictLowestEstimate && victim != nil && weightOverN*sum <= victim.estimate() {
			// The newcomer itself is the lowest; reject it.
			t.evictions++
			return nil
		}
		if victim != nil {
			delete(t.m, victim.key)
			t.evictions++
		}
		reuse = victim
	}
	a := t.newAccum(reuse, len(words), len(choice))
	*a = accum{
		key:         key,
		words:       a.words,
		choice:      a.choice,
		resultType:  resultType,
		sum:         sum,
		bgMatched:   bgMatched,
		entities:    entities,
		witness:     string(witness),
		weightOverN: weightOverN,
		seq:         seq,
	}
	copy(a.words, words)
	copy(a.choice, choice)
	t.m[key] = a
	if t.limit > 0 {
		a.pqEst = a.estimate()
		e := pqEntry{key: a.key, seq: a.seq, version: a.version, est: a.pqEst}
		if t.policy == EvictLowestEstimate {
			t.pq.push(e)
		} else {
			t.fifo = append(t.fifo, e)
		}
	}
	return a
}

// newAccum returns storage for an accumulator with nWords words and
// nChoice choices: the evicted victim's when there is one, its words
// and choice slices too when they are long enough, and fresh slab
// carvings otherwise. The victim is referenced only by the map entry
// add just deleted (queue and FIFO entries name it by key and seq), so
// recycling it keeps the slabs at O(γ) accumulators however many
// admissions a scan makes. The returned words and choice have the
// requested lengths; every other field is left for the caller to set.
func (t *accumulators) newAccum(victim *accum, nWords, nChoice int) *accum {
	a := victim
	if a == nil {
		a = &carve(&t.slab, 1)[0]
	}
	if cap(a.words) >= nWords {
		a.words = a.words[:nWords]
	} else {
		a.words = carve(&t.words, nWords)
	}
	if cap(a.choice) >= nChoice {
		a.choice = a.choice[:nChoice]
	} else {
		a.choice = carve(&t.choices, nChoice)
	}
	return a
}

// wouldReject reports whether add would reject a brand-new candidate
// whose final estimate is known to be at most estUB: the table is full
// under the lowest-estimate policy, the candidate is not already
// tracked, and even its upper bound does not beat the current victim.
// Since add rejects exactly when estimate ≤ victim.estimate() and
// estUB ≥ estimate, a true result reproduces add's decision without
// the caller having to compute the real score — the γ bound applied
// before the work it prunes, not after. A rejection is counted as an
// eviction, as add would.
func (t *accumulators) wouldReject(key string, estUB float64) bool {
	if t.limit <= 0 || t.policy != EvictLowestEstimate || len(t.m) < t.limit {
		return false
	}
	if _, ok := t.m[key]; ok {
		return false
	}
	v := t.victim()
	if v == nil || estUB > v.estimate() {
		return false
	}
	t.evictions++
	return true
}

// victim selects the entry to discard under the configured policy,
// skipping stale queue entries.
func (t *accumulators) victim() *accum {
	if t.policy == EvictFIFO {
		for len(t.fifo) > 0 {
			e := t.fifo[0]
			t.fifo = t.fifo[1:]
			if a, ok := t.m[e.key]; ok && a.seq == e.seq {
				return a
			}
		}
		return nil
	}
	for len(t.pq) > 0 {
		e := t.pq[0]
		a, ok := t.m[e.key]
		if !ok || a.seq != e.seq || a.version != e.version {
			t.pq.pop() // stale
			continue
		}
		return a
	}
	return nil
}

// mergeAccumulators folds per-worker accumulator tables into one.
// Per-candidate partial sums are added in worker order — each key
// occurs at most once per part, so the result is deterministic even
// though map iteration is not — and the witness becomes the earliest
// entity root in document order (Dewey keys compare lexicographically
// in document order). Afterwards the global γ bound is re-applied:
// if the merged table exceeds limit, the lowest-estimate candidates
// are dropped, mirroring the probabilistic eviction rule. The second
// return value is the number of candidates dropped at merge time.
//
// The parts are consumed: their accumulators are rehomed into the
// merged table, their storage is recycled, and they must not be used
// afterwards.
func mergeAccumulators(parts []*accumulators, limit int) (*accumulators, int) {
	merged := getAccumulators(0, EvictLowestEstimate)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for key, a := range p.m {
			t, ok := merged.m[key]
			if !ok {
				merged.m[key] = a
				continue
			}
			t.sum += a.sum
			t.bgMatched += a.bgMatched
			t.entities += a.entities
			if t.witness == "" || (a.witness != "" && a.witness < t.witness) {
				t.witness = a.witness
			}
		}
		p.release()
	}
	if limit <= 0 || len(merged.m) <= limit {
		return merged, 0
	}
	all := merged.all()
	sort.Slice(all, func(i, j int) bool {
		ei, ej := all[i].estimate(), all[j].estimate()
		if ei != ej {
			return ei > ej
		}
		return all[i].key < all[j].key
	})
	for _, a := range all[limit:] {
		delete(merged.m, a.key)
	}
	return merged, len(all) - limit
}

// all returns the live accumulators in unspecified order.
func (t *accumulators) all() []*accum {
	out := make([]*accum, 0, len(t.m))
	for _, a := range t.m {
		out = append(out, a)
	}
	return out
}

func (t *accumulators) len() int { return len(t.m) }
