package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xclean"
	"xclean/internal/catalog"
	"xclean/internal/cluster"
	"xclean/internal/invindex"
	"xclean/internal/server"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// engineOpts is the configuration of every end-to-end number: one scan
// worker, γ=1000, k=10, and the query set's ε.
func engineOpts(eps int) xclean.Options {
	return xclean.Options{MaxErrors: eps, Workers: 1, Accumulators: 1000, TopK: 10}
}

// sug is the part of a suggestion that every serving shape must agree
// on: the words and the score. Witness codes legitimately differ
// between shapes (live adds shift document ordinals).
type sug struct {
	Words []string
	Score float64
}

func sugsOf(in []xclean.Suggestion) []sug {
	out := make([]sug, len(in))
	for i, s := range in {
		out[i] = sug{Words: s.Words, Score: s.Score}
	}
	return out
}

// sameAnswers reports the first difference between two answers: other
// words at some rank, or a score off by more than 1e-12 of the
// reference score.
func sameAnswers(got, want []sug) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d suggestions, reference has %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(got[i].Words, " ") != strings.Join(want[i].Words, " ") {
			return fmt.Errorf("rank %d is %q, reference has %q", i+1, got[i].Words, want[i].Words)
		}
		scale := math.Max(math.Abs(want[i].Score), 1e-300)
		if math.Abs(got[i].Score-want[i].Score)/scale > 1e-12 {
			return fmt.Errorf("rank %d scores %g, reference %g", i+1, got[i].Score, want[i].Score)
		}
	}
	return nil
}

// reciprocalRank is 1/rank of the truth among the suggestions (0 when
// absent), comparing index tokens so case, stop words and punctuation
// do not matter.
func reciprocalRank(answer []sug, truth string) float64 {
	want := strings.Join(tokenizer.Options{}.Tokenize(truth), " ")
	for i, s := range answer {
		if strings.Join(s.Words, " ") == want {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// shape is one way of serving suggestions — a heap monolith, a live
// segment stack, an mmap'd snapshot, an HTTP server, a coordinator —
// built over a fixed pool of queries.
type shape struct {
	pool    []query
	clients int
	// serve sends one query through the shape's end-to-end path on
	// behalf of one client and returns what came back, to be judged by
	// answer once the clock has stopped.
	serve func(client int, q *query) (any, error)
	// answer turns what serve returned into a comparable answer; repeat
	// says the response was byte-identical to the same query's first
	// response, which is judged in its place.
	answer func(res any) (ans []sug, repeat bool, err error)
	// primary is the engine the closing write burst, the snapshot and
	// the cold start go to; persist lists every engine whose snapshot
	// counts towards stored bytes, and xmlBytes the XML they serve.
	primary  *xclean.Engine
	persist  []*xclean.Engine
	xmlBytes int
	// addDoc is the shape's own write path (the engine's unless the
	// shape fronts it with a catalog).
	addDoc   func(doc []byte) error
	closeFns []func()
	// segStats is the settled stack's shape (stack_live only).
	segStats xclean.SegmentStats
	// The parts a traced run reaches into: the engines behind serve, the
	// catalog and server of http_zipf and their base URL, the cluster.
	engines engineSet
	heapIx  map[string]*invindex.Index // mono_heap's indexes, by corpus
	cat     *catalog.Catalog
	srv     *server.Server
	base    string
	cluster *clusterParts
}

func (s *shape) close() {
	for i := len(s.closeFns) - 1; i >= 0; i-- {
		s.closeFns[i]()
	}
	s.closeFns = nil
}

func (s *shape) onClose(fn func()) { s.closeFns = append(s.closeFns, fn) }

// engineAnswer is the answer func of every in-process shape.
func engineAnswer(res any) ([]sug, bool, error) {
	return sugsOf(res.([]xclean.Suggestion)), false, nil
}

// engineShape is an in-process shape: one client calling Suggest on the
// engine of the query's corpus and ε. persist[0] is the primary engine.
func engineShape(pool []query, es engineSet, xmlBytes int, persist ...*xclean.Engine) *shape {
	primary := persist[0]
	return &shape{
		pool: pool, clients: 1, serve: es.serve, answer: engineAnswer,
		engines: es, primary: primary, persist: persist, xmlBytes: xmlBytes,
		addDoc: func(doc []byte) error { return primary.AddDocument(bytes.NewReader(doc)) },
	}
}

// heapCorpus is one parsed and indexed corpus with an engine per ε,
// sharing the index.
type heapCorpus struct {
	ix   *invindex.Index
	engs map[int]*xclean.Engine
}

func buildHeapCorpus(doc []byte, storeText bool, eps ...int) (*heapCorpus, error) {
	tree, err := xmltree.Parse(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	hc := &heapCorpus{engs: map[int]*xclean.Engine{}}
	if storeText {
		hc.ix = invindex.BuildStored(tree, tokenizer.Options{})
	} else {
		hc.ix = invindex.Build(tree, tokenizer.Options{})
	}
	for _, e := range eps {
		opts := engineOpts(e)
		opts.StoreText = storeText
		hc.engs[e] = xclean.FromIndex(hc.ix, opts)
	}
	return hc, nil
}

// engineSet routes a query to the engine of its corpus and ε.
type engineSet map[string]map[int]*xclean.Engine

func (es engineSet) serve(_ int, q *query) (any, error) {
	eng := es[q.Corpus][q.Eps]
	if eng == nil {
		return nil, fmt.Errorf("no engine for %s ε=%d", q.Corpus, q.Eps)
	}
	return eng.Suggest(q.Dirty), nil
}

// buildMonoHeap is the paper's own set-up: both corpora as heap
// monoliths, an engine per (corpus, ε).
func buildMonoHeap(in *inputs, pool []query, _ string) (*shape, error) {
	d, err := buildHeapCorpus(in.dblpXML, false, 2, 3)
	if err != nil {
		return nil, err
	}
	w, err := buildHeapCorpus(in.wikiXML, false, 2, 3)
	if err != nil {
		return nil, err
	}
	es := engineSet{corpusDBLP: d.engs, corpusINEX: w.engs}
	sh := engineShape(pool, es, len(in.dblpXML)+len(in.wikiXML), d.engs[2], w.engs[2])
	sh.heapIx = map[string]*invindex.Index{corpusDBLP: d.ix, corpusINEX: w.ix}
	return sh, nil
}

// buildStackLive serves the DBLP corpus from a live segment stack: all
// but the last liveAdds articles are the base, the rest arrive through
// AddDocument with decoy articles interleaved, the decoys are removed
// again, and compaction runs to its fixed point. Live content equals
// the monolith's, so only the stack differs.
func buildStackLive(in *inputs, pool []query, _ string) (*shape, error) {
	size := in.size
	nBase := len(in.dblpDocs) - size.liveAdds
	opts := engineOpts(2)
	opts.StoreText = true
	eng, err := xclean.Open(bytes.NewReader(corpusXML("dblp", in.dblpDocs[:nBase])), opts)
	if err != nil {
		return nil, err
	}
	every := size.liveAdds / size.liveDecoys
	ord := nBase // ordinal of the last top-level document
	var decoyCodes []string
	for i, doc := range in.dblpDocs[nBase:] {
		if err := eng.AddDocument(bytes.NewReader(doc)); err != nil {
			return nil, err
		}
		ord++
		if i%every == every/2 && len(decoyCodes) < size.liveDecoys {
			if err := eng.AddDocument(bytes.NewReader(in.decoys[len(decoyCodes)])); err != nil {
				return nil, err
			}
			ord++
			decoyCodes = append(decoyCodes, fmt.Sprintf("1.%d", ord))
		}
	}
	for _, code := range decoyCodes {
		if err := eng.RemoveDocument(code); err != nil {
			return nil, err
		}
	}
	if err := settle(eng); err != nil {
		return nil, err
	}
	st := eng.SegmentStats()
	if st.Segments < 3 || st.Tombstones < 1 {
		return nil, fmt.Errorf("stack_live: settled stack has %d sealed segments and %d tombstones, need ≥3 and ≥1", st.Segments, st.Tombstones)
	}
	sh := engineShape(pool, engineSet{corpusDBLP: {2: eng}}, len(in.dblpXML), eng)
	sh.segStats = st
	sh.onClose(eng.Close)
	return sh, nil
}

// settle runs compaction to the policy's fixed point. A write-triggered
// background burst may still be publishing when CompactNow first says
// there is nothing to do, so the loop ends only once the stack's epoch
// has stopped moving.
func settle(eng *xclean.Engine) error {
	ctx := context.Background()
	for {
		did, err := eng.CompactNow(ctx)
		if err != nil {
			return err
		}
		if did {
			continue
		}
		before := eng.SegmentStats().Epoch
		time.Sleep(20 * time.Millisecond)
		if eng.SegmentStats().Epoch == before {
			if again, err := eng.CompactNow(ctx); err != nil || !again {
				return err
			}
		}
	}
}

// buildSnapMmap writes both corpora as .seg snapshots and serves them
// memory-mapped, an engine per (corpus, ε) over the same two files.
func buildSnapMmap(in *inputs, pool []query, dir string) (*shape, error) {
	es := engineSet{}
	var persist []*xclean.Engine
	for _, c := range in.corpora() {
		hc, err := buildHeapCorpus(c.doc, false, 2)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, c.name+".seg")
		if err := hc.engs[2].SaveSnapshot(path); err != nil {
			return nil, err
		}
		es[c.name] = map[int]*xclean.Engine{}
		for _, eps := range []int{2, 3} {
			eng, err := xclean.OpenSnapshot(path, engineOpts(eps))
			if err != nil {
				return nil, err
			}
			es[c.name][eps] = eng
		}
		persist = append(persist, es[c.name][2])
	}
	return engineShape(pool, es, len(in.dblpXML)+len(in.wikiXML), persist...), nil
}

// httpClients is min(nproc, 4): the closed-loop callers of the two
// loopback workloads, one keep-alive connection each.
func httpClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// listen starts srv on a free loopback port and returns its base URL;
// closing the shape shuts the server down and waits for it.
func listen(sh *shape, srv *server.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	sh.onClose(func() {
		cancel()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// httpResult is what one GET /suggest returned. The suggestions span of
// the body is kept only for a query's first response and for any later
// one that differs from it: identical repeats need no second look.
type httpResult struct {
	span []byte // nil: byte-identical to the query's first response
}

// httpFront issues GET /suggest against base and remembers the first
// suggestions span of each pool query.
type httpFront struct {
	base    string
	corpus  bool // send ?corpus=
	clients []*http.Client
	first   []atomic.Pointer[[]byte]
}

func newHTTPFront(sh *shape, base string, pool []query, clients int, corpus bool) *httpFront {
	f := &httpFront{base: base, corpus: corpus, first: make([]atomic.Pointer[[]byte], len(pool))}
	for i := 0; i < clients; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		f.clients = append(f.clients, &http.Client{Transport: tr, Timeout: 30 * time.Second})
		sh.onClose(tr.CloseIdleConnections)
	}
	return f
}

var errNoSuggestions = errors.New("response has no suggestions field")

// suggestionsSpan cuts `"suggestions":[...]` out of a /suggest body; the
// fields around it (tookMillis, requestId) change on every request.
func suggestionsSpan(body []byte) ([]byte, error) {
	i := bytes.Index(body, []byte(`"suggestions":`))
	if i < 0 {
		return nil, errNoSuggestions
	}
	n := bytes.Index(body[i:], []byte(`,"tookMillis":`))
	if n < 0 {
		return nil, errNoSuggestions
	}
	return body[i : i+n], nil
}

func (f *httpFront) serve(client int, q *query) (any, error) {
	u := f.base + "/suggest?q=" + url.QueryEscape(q.Dirty)
	if f.corpus {
		u += "&corpus=" + q.Corpus
	}
	resp, err := f.clients[client].Get(u)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if bytes.Contains(body, []byte(`"partial":true`)) {
		return nil, errors.New("partial answer")
	}
	span, err := suggestionsSpan(body)
	if err != nil {
		return nil, err
	}
	if q.idx >= 0 && int(q.idx) < len(f.first) {
		if p := f.first[q.idx].Load(); p != nil && bytes.Equal(*p, span) {
			return httpResult{}, nil
		}
		f.first[q.idx].CompareAndSwap(nil, &span)
	}
	return httpResult{span: span}, nil
}

// answer decodes a kept suggestions span; a nil span is a repeat of the
// query's first response.
func (f *httpFront) answer(res any) ([]sug, bool, error) {
	r := res.(httpResult)
	if r.span == nil {
		return nil, true, nil
	}
	var doc struct {
		Suggestions []server.SuggestionJSON `json:"suggestions"`
	}
	if err := json.Unmarshal(append(append([]byte{'{'}, r.span...), '}'), &doc); err != nil {
		return nil, false, err
	}
	out := make([]sug, len(doc.Suggestions))
	for i, s := range doc.Suggestions {
		out[i] = sug{Words: s.Words, Score: s.Score}
	}
	return out, false, nil
}

// buildHTTPZipf serves both corpora from one catalog behind one server
// with a 512-entry suggestion cache, over loopback.
func buildHTTPZipf(in *inputs, pool []query, dir string) (*shape, error) {
	cat := catalog.New(catalog.Config{Options: engineOpts(2)})
	for _, c := range in.corpora() {
		path := filepath.Join(dir, c.name+".xml")
		if err := os.WriteFile(path, c.doc, 0o644); err != nil {
			return nil, err
		}
		if err := cat.Add(c.name, path); err != nil {
			return nil, err
		}
	}
	dblp, err := cat.Get(corpusDBLP)
	if err != nil {
		return nil, err
	}
	inex, err := cat.Get(corpusINEX)
	if err != nil {
		return nil, err
	}
	sh := &shape{
		pool: pool, clients: httpClients(),
		primary: dblp, persist: []*xclean.Engine{dblp, inex},
		xmlBytes: len(in.dblpXML) + len(in.wikiXML),
		addDoc:   func(doc []byte) error { return cat.AddDocumentTo(corpusDBLP, bytes.NewReader(doc)) },
	}
	sh.cat = cat
	sh.srv = server.New(nil, server.Config{Catalog: cat, CacheSize: httpCacheSize})
	sh.base, err = listen(sh, sh.srv)
	if err != nil {
		sh.close()
		return nil, err
	}
	f := newHTTPFront(sh, sh.base, pool, sh.clients, true)
	sh.serve, sh.answer = f.serve, f.answer
	return sh, nil
}

const httpCacheSize = 512

// clusterParts is the 2×2 topology: two entity-range shard engines,
// two listeners each, a coordinator and its front server.
type clusterParts struct {
	whole  *xclean.Engine
	shards []*xclean.Engine
	coord  *cluster.Coordinator
	base   string
}

func buildCluster(sh *shape, doc []byte) (*clusterParts, error) {
	hc, err := buildHeapCorpus(doc, false, 2)
	if err != nil {
		return nil, err
	}
	cp := &clusterParts{whole: hc.engs[2]}
	topo := make([][]cluster.Endpoint, 2)
	for i := range topo {
		se, err := cp.whole.ShardEngine(i, 2)
		if err != nil {
			return nil, err
		}
		cp.shards = append(cp.shards, se)
		for r := 0; r < 2; r++ {
			base, err := listen(sh, server.New(se, server.Config{}))
			if err != nil {
				return nil, err
			}
			topo[i] = append(topo[i], cluster.Endpoint(base))
		}
	}
	cp.coord, err = cluster.New(cluster.Config{Shards: topo, K: 10})
	if err != nil {
		return nil, err
	}
	cp.base, err = listen(sh, server.New(nil, server.Config{Cluster: cp.coord}))
	return cp, err
}

// buildCluster2x2 serves the DBLP corpus through a loopback coordinator
// over 2 shards × 2 replicas, suggestion cache off.
func buildCluster2x2(in *inputs, pool []query, _ string) (*shape, error) {
	sh := &shape{pool: pool, clients: httpClients(), xmlBytes: len(in.dblpXML)}
	cp, err := buildCluster(sh, in.dblpXML)
	if err != nil {
		sh.close()
		return nil, err
	}
	sh.cluster, sh.base = cp, cp.base
	sh.primary, sh.persist = cp.whole, []*xclean.Engine{cp.whole}
	sh.addDoc = func(doc []byte) error { return cp.whole.AddDocument(bytes.NewReader(doc)) }
	f := newHTTPFront(sh, cp.base, pool, sh.clients, false)
	sh.serve, sh.answer = f.serve, f.answer
	return sh, nil
}

// buildIngestMixed is one DBLP engine that keeps its text, ready for
// live writes at the default TailLimit and compaction policy.
func buildIngestMixed(in *inputs, pool []query, _ string) (*shape, error) {
	opts := engineOpts(2)
	opts.StoreText = true
	eng, err := xclean.Open(bytes.NewReader(in.dblpXML), opts)
	if err != nil {
		return nil, err
	}
	sh := engineShape(pool, engineSet{corpusDBLP: {2: eng}}, len(in.dblpXML), eng)
	sh.onClose(eng.Close)
	return sh, nil
}

// referenceAnswers answers every pool query on cold heap monoliths of
// the given corpora at the query's ε: the control every other shape is
// compared with.
func referenceAnswers(pool []query, docs map[string][]byte) ([][]sug, error) {
	need := map[string]map[int]bool{}
	for i := range pool {
		q := &pool[i]
		if need[q.Corpus] == nil {
			need[q.Corpus] = map[int]bool{}
		}
		need[q.Corpus][q.Eps] = true
	}
	es := engineSet{}
	for c, epsSet := range need {
		var eps []int
		for e := range epsSet {
			eps = append(eps, e)
		}
		hc, err := buildHeapCorpus(docs[c], false, eps...)
		if err != nil {
			return nil, err
		}
		es[c] = hc.engs
	}
	out := make([][]sug, len(pool))
	var wg sync.WaitGroup
	// Two halves in parallel: the reference is untimed set-up work.
	half := len(pool) / 2
	for _, r := range [][2]int{{0, half}, {half, len(pool)}} {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				q := &pool[i]
				out[i] = sugsOf(es[q.Corpus][q.Eps].Suggest(q.Dirty))
			}
		}(r[0], r[1])
	}
	wg.Wait()
	return out, nil
}
