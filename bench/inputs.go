package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"xclean/internal/dataset"
	"xclean/internal/queryset"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// The six query sets of the paper's Table II, in its reporting order.
var setNames = []string{
	"DBLP-RAND", "DBLP-RULE", "DBLP-CLEAN",
	"INEX-RAND", "INEX-RULE", "INEX-CLEAN",
}

const (
	corpusDBLP = "dblp"
	corpusINEX = "inex"
)

// sizing fixes every count the benchmark uses, so that a run does the
// same work whatever the machine's speed. Op counts of the timed phases
// scale with -seconds (see opsFor); everything else is fixed here.
type sizing struct {
	dblpArticles, wikiArticles int
	perSet, minRule            int // clean queries per set; RULE survivors required
	liveAdds, liveDecoys       int // stack_live: live AddDocuments and decoys removed again
	burstAdds                  int // the write burst every workload ends with
	decoyPool                  int // spare articles for decoys, bursts and ingest_mixed
	coldStarts                 int // OpenSnapshot + first answer repetitions
	setupReps                  int // set-ups per run; the median is reported
	probeQueries               int // ingest_mixed post-write probe queries per pass
	opsDivisor                 int // 1, or 50 under -smoke
}

var fullSizing = sizing{
	dblpArticles: 20000, wikiArticles: 2000, perSet: 450, minRule: 200,
	liveAdds: 400, liveDecoys: 40, burstAdds: 192,
	decoyPool: 2600, coldStarts: 15, setupReps: 3, probeQueries: 1350, opsDivisor: 1,
}

var smokeSizing = sizing{
	dblpArticles: 1500, wikiArticles: 120, perSet: 30, minRule: 5,
	liveAdds: 150, liveDecoys: 15, burstAdds: 16,
	decoyPool: 400, coldStarts: 2, setupReps: 1, probeQueries: 40, opsDivisor: 50,
}

// query is one evaluation query: the dirty text sent to the program and
// the clean text it should suggest. Eps is the variant threshold the
// paper uses for the query's set (2, or 3 for RULE).
type query struct {
	Set    string
	Corpus string
	Eps    int
	Dirty  string
	Truth  string
	// idx is the query's position in the pool it was drawn into (-1 for
	// a query outside any pool).
	idx int32
}

// The two corpora stand in for the paper's two fixed datasets (DBLP and
// INEX), so they are generated from constants, not from -seed: what the
// seed draws is everything a caller varies — the clean queries, their
// perturbation, the interleaving, the Zipf stream, the spare articles
// and the write sequence. Measured on the calibration host, a corpus
// per seed moved the p99 read latency by 17-53 % and allocs_per_op by 11-14 %
// between seeds (a few rule-covered words' neighbourhoods decide the
// tail), against 3-6 % with the corpora fixed; no bound the contract
// allows could have held that.
const (
	dblpCorpusSeed = 42
	wikiCorpusSeed = 43
)

// inputs is everything a workload feeds the program, generated from the
// seed and the constants above. The program under test only ever sees
// these bytes and strings: never the seed, never a workload name.
type inputs struct {
	size     sizing
	dblpDocs [][]byte // one <article> document each, in corpus order
	dblpXML  []byte   // <dblp> + dblpDocs + </dblp>
	wikiXML  []byte
	decoys   [][]byte // articles that are in neither corpus
	sets     map[string][]query
	// fp holds the sha256 of each corpus and, once a workload has built
	// its op sequence, of that sequence.
	fp map[string]string
}

// corpusDoc is one of the two corpora by name.
type corpusDoc struct {
	name string
	doc  []byte
}

func (in *inputs) corpora() []corpusDoc {
	return []corpusDoc{{corpusDBLP, in.dblpXML}, {corpusINEX, in.wikiXML}}
}

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// docsOf serializes every child of the tree's root as its own XML
// document; concatenated inside the root element they are the tree's
// own serialization.
func docsOf(t *xmltree.Tree) ([][]byte, error) {
	out := make([][]byte, 0, len(t.Root.Children))
	for _, c := range t.Root.Children {
		var b bytes.Buffer
		if _, err := (&xmltree.Tree{Root: c}).WriteXML(&b); err != nil {
			return nil, err
		}
		out = append(out, b.Bytes())
	}
	return out, nil
}

// corpusXML wraps documents in a root element.
func corpusXML(root string, docs [][]byte) []byte {
	n := 2*len(root) + 5
	for _, d := range docs {
		n += len(d)
	}
	b := make([]byte, 0, n)
	b = append(b, '<')
	b = append(b, root...)
	b = append(b, '>')
	for _, d := range docs {
		b = append(b, d...)
	}
	b = append(b, "</"...)
	b = append(b, root...)
	b = append(b, '>')
	return b
}

// vocabOf collects the index vocabulary of a tree the way the indexer
// tokenizes it; the RAND perturber needs it to keep dirty tokens out of
// the vocabulary.
func vocabOf(t *xmltree.Tree) *tokenizer.Vocabulary {
	v := tokenizer.NewVocabulary()
	opts := tokenizer.Options{}
	t.Walk(func(n *xmltree.Node) bool {
		if n.Text != "" {
			for _, w := range opts.Tokenize(n.Text) {
				v.Add(w, 1)
			}
		}
		return true
	})
	return v
}

// generate builds the corpora and the six query sets as eval.Workbench
// does (same seed offsets for the queries, CLEAN/RAND at ε=2, RULE at
// ε=3), plus a pool of articles outside both corpora.
func generate(seed int64, size sizing) (*inputs, error) {
	in := &inputs{size: size, sets: map[string][]query{}, fp: map[string]string{}}

	dblp := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: dblpCorpusSeed, Articles: size.dblpArticles})
	wiki := dataset.GenerateWiki(dataset.WikiConfig{Seed: wikiCorpusSeed, Articles: size.wikiArticles})
	var err error
	if in.dblpDocs, err = docsOf(dblp.Tree); err != nil {
		return nil, err
	}
	in.dblpXML = corpusXML("dblp", in.dblpDocs)
	var wb bytes.Buffer
	if _, err := wiki.Tree.WriteXML(&wb); err != nil {
		return nil, err
	}
	in.wikiXML = wb.Bytes()
	spare := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: seed + 100, Articles: size.decoyPool})
	if in.decoys, err = docsOf(spare.Tree); err != nil {
		return nil, err
	}

	n := size.perSet
	dClean := dblp.SampleQueries(seed+2, n)
	wClean := wiki.SampleQueries(seed+3, n)
	dPool := dblp.SampleQueries(seed+4, n*20)
	wPool := wiki.SampleQueries(seed+5, n*20)
	dp := queryset.NewPerturber(seed+6, vocabOf(dblp.Tree))
	wp := queryset.NewPerturber(seed+7, vocabOf(wiki.Tree))
	add := func(set, corpus string, eps int, qs []queryset.Query) {
		if len(qs) > n {
			qs = qs[:n]
		}
		out := make([]query, len(qs))
		for i, q := range qs {
			out[i] = query{Set: set, Corpus: corpus, Eps: eps, Dirty: q.Dirty, Truth: q.Truth, idx: -1}
		}
		in.sets[set] = out
	}
	add("DBLP-CLEAN", corpusDBLP, 2, queryset.MakeClean(dClean))
	add("DBLP-RAND", corpusDBLP, 2, dp.MakeRand(dClean))
	add("DBLP-RULE", corpusDBLP, 3, dp.MakeRule(dPool))
	add("INEX-CLEAN", corpusINEX, 2, queryset.MakeClean(wClean))
	add("INEX-RAND", corpusINEX, 2, wp.MakeRand(wClean))
	add("INEX-RULE", corpusINEX, 3, wp.MakeRule(wPool))
	for _, set := range []string{"DBLP-RULE", "INEX-RULE"} {
		if got := len(in.sets[set]); got < size.minRule {
			return nil, fmt.Errorf("inputs: %s has %d queries after the rule filter, need %d", set, got, size.minRule)
		}
	}

	in.fp["corpus.dblp"] = sha(in.dblpXML)
	in.fp["corpus.inex"] = sha(in.wikiXML)
	in.fp["corpus.spare"] = sha(in.decoys...)
	return in, nil
}

// pool returns the queries of the named sets in one seeded shuffle, so
// that a pass interleaves the sets instead of running them one after
// another. eps, when positive, overrides each query's own threshold:
// shapes that hold one engine per corpus serve every set at one ε.
func (in *inputs) pool(seed int64, eps int, sets ...string) []query {
	var out []query
	for _, s := range sets {
		out = append(out, in.sets[s]...)
	}
	if eps > 0 {
		for i := range out {
			out[i].Eps = eps
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].idx = int32(i)
	}
	return out
}

var dblpSets = []string{"DBLP-RAND", "DBLP-RULE", "DBLP-CLEAN"}

// fingerprintOps records the sha256 of a workload's op sequence: the
// query text of every op, in issue order.
func (in *inputs) fingerprintOps(workload string, pool []query, seq []int32, extra ...[]byte) {
	h := sha256.New()
	for _, i := range seq {
		q := &pool[i]
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\n", q.Corpus, q.Set, q.Eps, q.Dirty)
	}
	for _, e := range extra {
		h.Write(e)
	}
	in.fp["ops."+workload] = hex.EncodeToString(h.Sum(nil))
}

// repeatSeq is passes × (0..n-1): the library workloads run the same
// interleaved pass again and again.
func repeatSeq(n, passes int) []int32 {
	seq := make([]int32, 0, n*passes)
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			seq = append(seq, int32(i))
		}
	}
	return seq
}

// zipfSeq draws n indices into a pool of the given size with
// P(rank r) ∝ 1/(r+1)^s. The ranks are the pool's own (shuffled) order,
// so popularity is independent of query set.
func zipfSeq(seed int64, n, size int, s float64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(size-1))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// writeOp is one step of ingest_mixed's writer: add the next spare
// article, or remove the victim-th earlier add.
type writeOp struct {
	add    bool
	victim int // index among this sequence's adds (remove only)
}

// writeSeq builds n ops, 80 % adds and 20 % removes of an earlier add
// that is still live.
func writeSeq(seed int64, n int) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	var live []int
	adds := 0
	ops := make([]writeOp, 0, n)
	for len(ops) < n {
		if len(live) > 0 && rng.Intn(5) == 0 {
			k := rng.Intn(len(live))
			ops = append(ops, writeOp{victim: live[k]})
			live = append(live[:k], live[k+1:]...)
			continue
		}
		ops = append(ops, writeOp{add: true})
		live = append(live, adds)
		adds++
	}
	return ops
}

func writeSeqBytes(ops []writeOp) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&b, "%t:%d\n", op.add, op.victim)
	}
	return b.Bytes()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
