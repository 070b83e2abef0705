package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"xclean"
	"xclean/internal/cache"
	"xclean/internal/core"
	"xclean/internal/editdist"
	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/postings"
	"xclean/internal/resulttype"
	"xclean/internal/server"
	"xclean/internal/slca"
	"xclean/internal/snapfile"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// lab is what a traced run measures layers on: every serving shape
// built over the run's own inputs (the workload's own shape reused, the
// others built beside it), plus bare core engines over the heap indexes
// so that the core layer can be called without the public wrapper.
type lab struct {
	shapes map[string]*shape
	own    string                     // the workload's shape: closed by its run, not here
	ix     map[string]*invindex.Index // the heap monolith's own
	fss    map[string]map[int]*fastss.Index
	core   map[string]map[int]*core.Engine
	client *http.Client
	// Set-up timings taken while building the lab.
	parseMBps, buildMs, fastssBuildMs float64
}

func (lb *lab) close() {
	for name, sh := range lb.shapes {
		if name != lb.own {
			sh.close()
		}
	}
	lb.client.CloseIdleConnections()
}

// buildLab builds the shapes the workload does not have yet (two at a
// time: none of this is timed) and bare core engines over the heap
// monolith's own indexes, then times parse, index build and FastSS
// build on their own.
func buildLab(r *run) (*lab, error) {
	lb := &lab{
		shapes: map[string]*shape{r.def.name: r.sh}, own: r.def.name,
		fss:    map[string]map[int]*fastss.Index{},
		core:   map[string]map[int]*core.Engine{},
		client: &http.Client{Timeout: 30 * time.Second},
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	slots := make(chan struct{}, 2) // two builders: one per core of the calibration host
	for i := range workloads {
		def := &workloads[i]
		if def.name == r.def.name || def.ingest {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			dir := filepath.Join(r.dir, "lab-"+def.name)
			err := os.MkdirAll(dir, 0o755)
			var sh *shape
			if err == nil {
				sh, err = def.build(r.in, nil, dir)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("lab: %s: %w", def.name, err)
				}
				return
			}
			lb.shapes[def.name] = sh
		}()
	}
	wg.Wait()
	if firstErr != nil {
		lb.close()
		return nil, firstErr
	}

	lb.ix = lb.shapes["mono_heap"].heapIx
	var fssTime time.Duration
	for c, ix := range lb.ix {
		lb.fss[c] = map[int]*fastss.Index{}
		lb.core[c] = map[int]*core.Engine{}
		for _, eps := range []int{2, 3} {
			t0 := time.Now()
			fss := fastss.Build(ix.VocabList(), fastss.Config{MaxErrors: eps, PartitionLen: 12})
			fssTime += time.Since(t0)
			lb.fss[c][eps] = fss
			lb.core[c][eps] = core.NewEngineWithFastSS(ix, fss, coreConfig(eps, 1))
		}
	}
	lb.fastssBuildMs = float64(fssTime) / 1e6

	t0 := time.Now()
	tree, err := xmltree.Parse(bytes.NewReader(r.in.dblpXML))
	if err != nil {
		return nil, err
	}
	lb.parseMBps = float64(len(r.in.dblpXML)) / (1 << 20) / time.Since(t0).Seconds()
	t0 = time.Now()
	invindex.Build(tree, tokenizer.Options{})
	lb.buildMs = float64(time.Since(t0)) / 1e6
	return lb, nil
}

func coreConfig(eps, workers int) core.Config {
	return core.Config{Epsilon: eps, Workers: workers, Gamma: 1000, K: 10}
}

// serverCounts is the part of GET /metricz the cache and admission
// metrics are computed from.
type serverCounts struct {
	hits, misses, requests, sheds int64
}

// cacheCounts reads the http_zipf shape's own counters over its own
// metrics endpoint.
func (lb *lab) cacheCounts() serverCounts {
	resp, err := lb.client.Get(lb.shapes["http_zipf"].base + "/metricz")
	if err != nil {
		return serverCounts{}
	}
	defer resp.Body.Close()
	var m server.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return serverCounts{}
	}
	return serverCounts{m.CacheHits, m.CacheMisses, int64(m.SuggestRequests), m.Admission.Sheds}
}

// writeProbe is the write path measured from outside on every traced
// run: one writer applies ingest_mixed's op sequence to a segmented DBLP
// engine while one reader keeps querying it, then the stack is flushed.
// On ingest_mixed itself the engine is the workload's own.
func (lb *lab) writeProbe(r *run, m map[string]float64) (*writeTracer, error) {
	sh := lb.shapes["ingest_mixed"]
	if sh == nil {
		var err error
		if sh, err = buildIngestMixed(r.in, nil, ""); err != nil {
			return nil, err
		}
		defer sh.close()
	}
	eng := sh.primary
	sink := xclean.NewObserver()
	eng.SetObserver(sink)
	ingest := workloadByName("ingest_mixed")
	n := r.cfg.opsFor(ingest)
	if n > 512 {
		n = 512 // six seals' worth: enough for the compactor to run several times
	}
	ops := writeSeq(r.cfg.seed+30, n)
	queries := r.in.pool(r.cfg.seed+20, ingest.eps, ingest.sets...)

	wt := &writeTracer{tracer: tracer{workload: r.def.name, epoch: time.Now(), idBase: 1 << 30}}
	spanOf := map[string]string{"read": "segment.read_under_write", "add": "segment.add", "remove": "segment.remove"}
	adds, errs := mixed(sh, r.in, queries, ops, r.nextDecoy, func(kind string, n int, fn func()) {
		wt.do(spanOf[kind], n, fn)
	})
	r.nextDecoy += len(adds)
	if len(errs) > 0 {
		return nil, fmt.Errorf("write probe: %w", errs[0])
	}
	if err := settle(eng); err != nil {
		return nil, err
	}
	st := eng.SegmentStats()
	snap := sink.Snapshot()
	t0 := time.Now()
	if err := eng.FlushSegments(context.Background()); err != nil {
		return nil, err
	}
	m["segment.flush_ms"] = float64(time.Since(t0)) / 1e6

	addLat := wt.durations("segment.add")
	m["segment.add_p50_us"] = percentile(addLat, 50)
	m["segment.remove_p50_us"] = percentile(wt.durations("segment.remove"), 50)
	m["segment.seal_max_ms"] = percentile(addLat, 100) / 1e3
	m["segment.read_p99_under_write_us"] = percentile(wt.durations("segment.read_under_write"), 99)
	m["segment.compactions"] = float64(st.Compactions)
	// The compactor's own clock, as the engine's observer reports it.
	m["segment.compact_ms_total"] = snap.CompactionDur.Sum * 1e3

	// The settled read stack of stack_live.
	ss := lb.shapes["stack_live"].segStats
	m["segment.sealed"] = float64(ss.Segments)
	m["segment.tail_docs"] = float64(ss.TailDocs)
	m["segment.tombstones"] = float64(ss.Tombstones)
	return wt, nil
}

// timeEach calls fn n times and returns the median nanoseconds per call.
func timeEach(n int, fn func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn(i)
		d[i] = float64(time.Since(t0))
	}
	return median(d)
}

// timeBatch calls fn n times inside one pair of clock reads and returns
// the mean nanoseconds per call: for calls so short that reading the
// clock around each one would be most of the measurement.
func timeBatch(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// microProbes times single calls into each layer's exported functions
// on inputs taken from the workload's own pool.
func (lb *lab) microProbes(r *run, m map[string]float64) error {
	sample := r.pool
	if len(sample) > 200 {
		sample = sample[:200]
	}

	// fastss and editdist: every keyword of the sampled queries.
	type kw struct {
		tok         string
		corpus      string
		eps         int
		matches     []fastss.Match
		variantToks []string
	}
	var kws []kw
	for i := range sample {
		q := &sample[i]
		for _, tok := range tokenizer.TokenizeRaw(q.Dirty) {
			kws = append(kws, kw{tok: tok, corpus: q.Corpus, eps: q.Eps})
		}
	}
	var matchCount int
	m["fastss.search_ns"] = timeEach(len(kws), func(i int) {
		k := &kws[i]
		k.matches = lb.fss[k.corpus][k.eps].Search(k.tok)
	})
	type pair struct {
		a, b string
		k    int
	}
	var pairs []pair
	for i := range kws {
		k := &kws[i]
		matchCount += len(k.matches)
		for _, mt := range k.matches {
			k.variantToks = append(k.variantToks, mt.Word)
			if len(pairs) < 5000 {
				pairs = append(pairs, pair{k.tok, mt.Word, k.eps})
			}
		}
	}
	m["fastss.matches_per_kw"] = float64(matchCount) / float64(len(kws))
	m["fastss.build_ms"] = lb.fastssBuildMs
	if len(pairs) == 0 {
		return fmt.Errorf("micro-probes: no variant pairs")
	}
	m["editdist.withink_ns"] = timeBatch(len(pairs), func(i int) { editdist.WithinK(pairs[i].a, pairs[i].b, pairs[i].k) })

	// core over each of the paper's six sets, whatever the workload draws.
	for _, set := range setNames {
		qs := r.in.sets[set]
		if len(qs) > 100 {
			qs = qs[:100]
		}
		ns := make([]float64, len(qs))
		for i := range qs {
			ce := lb.core[qs[i].Corpus][qs[i].Eps]
			t0 := time.Now()
			ce.SuggestDetailed(qs[i].Dirty)
			ns[i] = float64(time.Since(t0)) / 1e3
		}
		m["core.suggest_p50_us."+set] = percentile(ns, 50)
	}

	// The same layer's other entry points, on the sampled queries.
	spaces := sample
	if len(spaces) > 60 {
		spaces = spaces[:60]
	}
	m["core.spaces_p50_us"] = timeEach(len(spaces), func(i int) {
		lb.core[spaces[i].Corpus][spaces[i].Eps].SuggestWithSpaces(spaces[i].Dirty)
	}) / 1e3
	dblp := r.in.pool(r.cfg.seed+20, 2, dblpSets...)
	if len(dblp) > 100 {
		dblp = dblp[:100]
	}
	se := slca.NewEngineWithFastSS(lb.ix[corpusDBLP], lb.fss[corpusDBLP][2], coreConfig(2, 1))
	m["slca.suggest_p50_us"] = timeEach(len(dblp), func(i int) { se.Suggest(dblp[i].Dirty) }) / 1e3
	ee := slca.NewELCAEngineWithFastSS(lb.ix[corpusDBLP], lb.fss[corpusDBLP][2], coreConfig(2, 1))
	m["slca.elca_suggest_p50_us"] = timeEach(len(dblp), func(i int) { ee.Suggest(dblp[i].Dirty) }) / 1e3

	// Workers: the slowest decile of the sample at one worker, again at
	// one worker per core.
	one := make([]float64, len(sample))
	for i := range sample {
		t0 := time.Now()
		lb.core[sample[i].Corpus][sample[i].Eps].Suggest(sample[i].Dirty)
		one[i] = float64(time.Since(t0))
	}
	order := make([]int, len(sample))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return one[order[a]] > one[order[b]] })
	slow := order[:(len(order)+9)/10]
	wide := map[string]map[int]*core.Engine{}
	for c, byEps := range lb.fss {
		wide[c] = map[int]*core.Engine{}
		for eps, fss := range byEps {
			wide[c][eps] = core.NewEngineWithFastSS(lb.ix[c], fss, coreConfig(eps, runtime.NumCPU()))
		}
	}
	var t1, tn []float64
	for _, i := range slow {
		q := &sample[i]
		t1 = append(t1, timeEach(3, func(int) { lb.core[q.Corpus][q.Eps].Suggest(q.Dirty) }))
		tn = append(tn, timeEach(3, func(int) { wide[q.Corpus][q.Eps].Suggest(q.Dirty) }))
	}
	m["core.workers_speedup"] = ratio(median(t1), median(tn))

	// invindex, postings, resulttype: per keyword of the sample.
	m["invindex.build_ms"] = lb.buildMs
	m["xmltree.parse_mb_per_s"] = lb.parseMBps
	var withVariants []kw
	for _, k := range kws {
		if len(k.variantToks) > 0 {
			withVariants = append(withVariants, k)
		}
	}
	if len(withVariants) == 0 {
		return fmt.Errorf("micro-probes: no keyword has variants")
	}
	m["invindex.merged_open_ns"] = timeEach(len(withVariants), func(i int) {
		lb.ix[withVariants[i].corpus].MergedListFor(withVariants[i].variantToks)
	})
	nextNs, skipNs := walkMerged(withVariants, func(k *kw) *invindex.MergedList {
		return lb.ix[k.corpus].MergedListFor(k.variantToks)
	})
	m["invindex.merged_next_ns"] = nextNs
	m["invindex.skipto_ns"] = skipNs

	var lists []*postings.List
	var raw [][]invindex.Posting
	for _, k := range withVariants {
		for _, tok := range k.variantToks {
			if ps := lb.ix[k.corpus].Postings(tok); len(ps) >= 32 && len(lists) < 400 {
				lists = append(lists, postings.Encode(ps))
				raw = append(raw, ps)
			}
		}
	}
	if len(lists) == 0 {
		return fmt.Errorf("micro-probes: no posting list of 32 entries or more")
	}
	var decoded int
	t0 := time.Now()
	for _, l := range lists {
		decoded += len(l.Decode())
	}
	m["postings.decode_ns_per_posting"] = float64(time.Since(t0)) / float64(decoded)
	var skips int
	t0 = time.Now()
	for i, l := range lists {
		it := l.Iter()
		for j := 8; j < len(raw[i]); j += 16 {
			it.SkipTo(raw[i][j].Dewey)
			skips++
		}
	}
	m["postings.skipto_ns"] = float64(time.Since(t0)) / float64(skips)

	inf := map[string]*resulttype.Inferrer{}
	for c, ix := range lb.ix {
		inf[c] = &resulttype.Inferrer{Index: ix, MinDepth: 2}
	}
	m["resulttype.best_ns"] = timeEach(len(sample), func(i int) {
		inf[sample[i].Corpus].Best(tokenizer.Options{}.Tokenize(sample[i].Truth))
	})

	// snapfile: write, open both ways, verify, first query, and the
	// merged-list walk straight off the mapping.
	dir := filepath.Join(r.dir, "lab-snapfile")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "dblp.seg")
	heap := lb.shapes["mono_heap"].engines[corpusDBLP][2]
	var writes, opens, nommaps, verifies, firsts []float64
	firstQuery := r.in.sets["DBLP-CLEAN"][0].Dirty
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		if err := heap.SaveSnapshot(path); err != nil {
			return err
		}
		writes = append(writes, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		rd, err := snapfile.Open(path, snapfile.OpenOptions{})
		if err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		if err := rd.Verify(); err != nil {
			return err
		}
		verifies = append(verifies, float64(time.Since(t0))/1e6)
		rd.Close()
		t0 = time.Now()
		hr, err := snapfile.Open(path, snapfile.OpenOptions{NoMmap: true})
		if err != nil {
			return err
		}
		nommaps = append(nommaps, float64(time.Since(t0))/1e6)
		hr.Close()
		eng, err := xclean.OpenSnapshot(path, engineOpts(2))
		if err != nil {
			return err
		}
		t0 = time.Now()
		eng.Suggest(firstQuery)
		firsts = append(firsts, float64(time.Since(t0))/1e6)
	}
	m["snapfile.write_ms"] = median(writes)
	m["snapfile.open_us"] = median(opens)
	m["snapfile.verify_ms"] = median(verifies)
	m["snapfile.nommap_open_ms"] = median(nommaps)
	m["snapfile.first_query_ms"] = median(firsts)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["snapfile.bytes_per_corpus_byte"] = float64(fi.Size()) / float64(len(r.in.dblpXML))
	rd, err := snapfile.Open(path, snapfile.OpenOptions{})
	if err != nil {
		return err
	}
	defer rd.Close()
	var dblpKws []kw
	for _, k := range withVariants {
		if k.corpus == corpusDBLP {
			dblpKws = append(dblpKws, k)
		}
	}
	if len(dblpKws) == 0 {
		return fmt.Errorf("micro-probes: no DBLP keyword has variants")
	}
	m["snapfile.merged_next_ns"], _ = walkMerged(dblpKws, func(k *kw) *invindex.MergedList {
		return rd.MergedListFor(k.variantToks)
	})

	// cache: the LRU on its own, at the server's capacity.
	lru := cache.New[[]xclean.Suggestion](httpCacheSize)
	val := []xclean.Suggestion{{Query: "x"}}
	keys := make([]string, httpCacheSize)
	for i := range keys {
		keys[i] = fmt.Sprintf("q\x00dblp\x00query number %d", i)
	}
	m["cache.put_ns"] = timeBatch(len(keys), func(i int) { lru.Put(keys[i], val) })
	m["cache.get_hit_ns"] = timeBatch(len(keys), func(i int) { lru.Get(keys[i]) })

	// catalog and server: resolve, the handler on a recorder (miss then
	// hit), and the same hit over loopback.
	web := lb.shapes["http_zipf"]
	m["catalog.resolve_ns"] = timeBatch(2000, func(i int) { web.cat.Resolve(corpusDBLP) })
	fresh := server.New(nil, server.Config{Catalog: web.cat, CacheSize: httpCacheSize})
	handler := fresh.Handler()
	var missUs, hitUs, loopUs, respBytes []float64
	for i := range sample {
		q := requestFor(workloadByName("http_zipf"), &sample[i])
		target := "/suggest?q=" + url.QueryEscape(q.Dirty) + "&corpus=" + q.Corpus
		call := func(h http.Handler) (float64, int) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, target, nil)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			return float64(time.Since(t0)) / 1e3, rec.Body.Len()
		}
		d, _ := call(handler)
		missUs = append(missUs, d)
		d, n := call(handler)
		hitUs = append(hitUs, d)
		respBytes = append(respBytes, float64(n))
		// The listening server: prime its cache, then time a hit over
		// the socket and a hit on its handler.
		call(web.srv.Handler())
		t0 := time.Now()
		resp, err := lb.client.Get(web.base + target)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		loop := float64(time.Since(t0)) / 1e3
		d, _ = call(web.srv.Handler())
		loopUs = append(loopUs, loop-d)
	}
	m["server.handler_miss_us"] = percentile(missUs, 50)
	m["server.handler_hit_us"] = percentile(hitUs, 50)
	m["server.loopback_overhead_us"] = percentile(loopUs, 50)
	m["server.resp_bytes"] = mean(respBytes)

	// cluster: sixteen queries per round-trip.
	cp := lb.shapes["cluster_2x2"].cluster
	var perQuery []float64
	for lo := 0; lo+16 <= len(dblp); lo += 16 {
		batch := make([]string, 16)
		for i := range batch {
			batch[i] = dblp[lo+i].Dirty
		}
		t0 := time.Now()
		if _, err := cp.coord.SuggestBatch(context.Background(), batch, "", ""); err != nil {
			return err
		}
		perQuery = append(perQuery, float64(time.Since(t0))/1e3/16)
	}
	if len(perQuery) == 0 {
		return fmt.Errorf("micro-probes: fewer than 16 DBLP queries")
	}
	m["cluster.batch16_us_per_query"] = median(perQuery)
	return nil
}

// walkMerged opens a merged list per keyword and drains it (at most 4096
// entries) to time Next, then opens it again and skips to every 16th
// entry to time SkipTo. Both results are nanoseconds per call.
func walkMerged[K any](kws []K, open func(*K) *invindex.MergedList) (nextNs, skipNs float64) {
	const maxEntries = 4096
	var nexts, skips int
	var nextTime, skipTime time.Duration
	for i := range kws {
		ml := open(&kws[i])
		n := 0
		t0 := time.Now()
		for ; n < maxEntries; n++ {
			if _, ok := ml.Next(); !ok {
				break
			}
		}
		nextTime += time.Since(t0)
		nexts += n + 1

		// Targets are cloned off the clock: a cursor may reuse the
		// buffer behind the Dewey code it hands out.
		var targets []xmltree.Dewey
		ml = open(&kws[i])
		for j := 0; j < n; j++ {
			e, _ := ml.Next()
			if j%16 == 8 {
				targets = append(targets, e.Dewey.Clone())
			}
		}
		ml = open(&kws[i])
		t0 = time.Now()
		for _, d := range targets {
			ml.SkipTo(d)
		}
		skipTime += time.Since(t0)
		skips += len(targets)
	}
	if skips == 0 {
		skips = 1
	}
	return float64(nextTime) / float64(nexts), float64(skipTime) / float64(skips)
}
