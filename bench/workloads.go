package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xclean"
)

// workloadDef names one workload: which queries it draws, which shape
// serves them, and how many timed ops one -second buys.
type workloadDef struct {
	name string
	why  string
	sets []string
	// eps, when positive, is the one ε the shape's engines run at (a
	// catalog, a stack and a shard set each hold one engine per corpus);
	// 0 keeps each set's own ε.
	eps   int
	build func(in *inputs, pool []query, dir string) (*shape, error)
	// opsPerSecond sizes the timed phase: ops = opsPerSecond × -seconds,
	// rounded to whole passes where the workload runs passes. The rates
	// were read off the calibration host (README) so that the phase
	// lasts about -seconds there; the count, not the clock, ends it, so
	// exact metrics repeat.
	opsPerSecond int
	// passes: the timed phase is whole passes over the pool by one
	// client, and timings are percentiles over queries of the per-query
	// median across passes. Otherwise every timed request counts.
	passes bool
	// zipf: draw ops Zipf(s=1.1) from the pool instead of walking it.
	zipf bool
	// selfRef: the shape is the control; its warm-up answers are the
	// reference.
	selfRef bool
	ingest  bool
}

var workloads = []workloadDef{
	{
		name:  "mono_heap",
		why:   "Paper Table VI: in-process Suggest on heap monoliths, six sets interleaved; core/fastss/invindex do all the work, so it is the control for every other layer.",
		sets:  setNames,
		build: buildMonoHeap, opsPerSecond: 1700, passes: true, selfRef: true,
	},
	{
		name: "stack_live",
		why:  "Same DBLP content as a settled live segment stack (base + live adds, decoys tombstoned); only per-segment scans and MergePartials differ from mono_heap.",
		sets: dblpSets, eps: 2,
		build: buildStackLive, opsPerSecond: 1900, passes: true,
	},
	{
		name:  "snap_mmap",
		why:   "Both corpora reopened from .seg snapshots via mmap; snapfile.Reader and split-payload postings decode replace the heap index, and the first answer pays the lazy FastSS build.",
		sets:  setNames,
		build: buildSnapMmap, opsPerSecond: 1100, passes: true,
	},
	{
		name: "http_zipf",
		why:  "Loopback GET /suggest on a two-corpus catalog, Zipf s=1.1 over a pool 3.5x the 512-entry cache, closed loop; cache, handler and JSON dominate and core runs only on misses.",
		sets: setNames, eps: 2,
		build: buildHTTPZipf, opsPerSecond: 9000, zipf: true,
	},
	{
		name: "cluster_2x2",
		why:  "Loopback coordinator over 2 shards x 2 replicas, uniform DBLP queries, cache off, closed loop; every request pays replica pick, two HTTP legs, wire decode and MergePartials.",
		sets: dblpSets, eps: 2,
		build: buildCluster2x2, opsPerSecond: 1500,
	},
	{
		name: "ingest_mixed",
		why:  "One writer (80% AddDocument, 20% RemoveDocument) beside one closed-loop reader on a segmented DBLP engine, then flush and snapshot; shows read gains bought with slower seals or compaction.",
		sets: dblpSets, eps: 2,
		build: buildIngestMixed, opsPerSecond: 190, ingest: true,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds int
	smoke   bool
	outDir  string
}

func (c runConfig) size() sizing {
	if c.smoke {
		return smokeSizing
	}
	return fullSizing
}

func (c runConfig) calibTries() int {
	if c.smoke {
		return 5
	}
	return calibTries
}

// opsFor is the timed op count of a workload under this configuration.
func (c runConfig) opsFor(def *workloadDef) int {
	n := def.opsPerSecond * c.seconds / c.size().opsDivisor
	if n < 20 {
		n = 20
	}
	return n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's row in a result file.
type workloadResult struct {
	Workload     string            `json:"workload"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`
	Unstable     bool              `json:"unstable"`
	UnstableWhy  string            `json:"unstable_why,omitempty"`
	Failures     []string          `json:"failures,omitempty"`
	Fingerprints map[string]string `json:"fingerprints"`
	Host         hostInfo          `json:"host"`
}

func (r *workloadResult) set(name string, v float64) {
	spec, ok := metricSpecs[name]
	if !ok {
		panic("bench: metric " + name + " has no spec")
	}
	r.Metrics[name] = metric{Value: v, Unit: spec.unit}
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// run is one workload in flight: its inputs, its shape and what has
// been measured so far.
type run struct {
	cfg  runConfig
	def  *workloadDef
	dir  string
	in   *inputs
	pool []query
	sh   *shape
	ref  [][]sug
	res  *workloadResult
	// own, seen and bad are the judged answer, whether one was judged,
	// and whether it was wrong, per pool query.
	own  [][]sug
	seen []bool
	bad  []bool
	// liveXML is the XML the shape's persisted engines hold; writes
	// adjust it so stored bytes are always set against live content.
	liveXML int
	// nextDecoy is the first spare article no earlier phase has used.
	nextDecoy int
	// oneSetUp: set up once (a traced run reports no setup_s).
	oneSetUp bool
}

func (r *run) closeShape() {
	if r.sh != nil {
		r.sh.close()
		r.sh = nil
	}
	os.RemoveAll(r.dir)
}

// setUp generates the inputs and builds the shape setupReps times and
// keeps the last; the median duration is the workload's setup_s.
func (r *run) setUp() (setupS float64, err error) {
	size := r.cfg.size()
	var took []float64
	reps := size.setupReps
	if r.oneSetUp {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		r.closeShape()
		r.in, r.pool, r.ref = nil, nil, nil
		runtime.GC()
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		in, err := generate(r.cfg.seed, size)
		if err != nil {
			return 0, err
		}
		pool := in.pool(r.cfg.seed+20, r.def.eps, r.def.sets...)
		sh, err := r.def.build(in, pool, r.dir)
		if err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", r.def.name, err)
		}
		took = append(took, time.Since(t0).Seconds())
		r.in, r.pool, r.sh = in, pool, sh
	}
	r.liveXML = r.sh.xmlBytes
	r.nextDecoy = size.liveDecoys
	return median(took), nil
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	lat     []time.Duration // by op
	res     []any
	err     []error
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// closedLoop issues seq through the shape with sh.clients callers, each
// sending its next request only once the previous one has answered.
func closedLoop(sh *shape, seq []int32) loopResult {
	lr := loopResult{
		lat: make([]time.Duration, len(seq)),
		res: make([]any, len(seq)),
		err: make([]error, len(seq)),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < sh.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				s := time.Now()
				lr.res[i], lr.err[i] = sh.serve(c, &sh.pool[seq[i]])
				lr.lat[i] = time.Since(s)
			}
		}(c)
	}
	wg.Wait()
	lr.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	lr.mallocs = after.Mallocs - before.Mallocs
	lr.bytes = after.TotalAlloc - before.TotalAlloc
	return lr
}

// judge compares every op's answer with the reference, recording each
// query's own answer in r.own. A response that merely repeats the
// query's first response is judged by that first response, which an
// earlier loop (the warm-up) may have produced.
func (r *run) judge(seq []int32, lr loopResult, ref [][]sug) {
	if r.own == nil {
		r.own = make([][]sug, len(r.pool))
		r.seen = make([]bool, len(r.pool))
		r.bad = make([]bool, len(r.pool))
	}
	var same []int // ops whose response repeated the query's first
	for i, qi := range seq {
		r.res.Attempted++
		q := &r.pool[qi]
		if lr.err[i] != nil {
			r.res.fail("%q: %v", q.Dirty, lr.err[i])
			continue
		}
		ans, repeat, err := r.sh.answer(lr.res[i])
		if err != nil {
			r.res.fail("%q: %v", q.Dirty, err)
			continue
		}
		if repeat {
			same = append(same, i)
			continue
		}
		r.seen[qi], r.own[qi] = true, ans
		if err := sameAnswers(ans, ref[qi]); err != nil {
			r.bad[qi] = true
			r.res.fail("%q: %v", q.Dirty, err)
		}
	}
	for _, i := range same {
		if qi := seq[i]; r.bad[qi] || !r.seen[qi] {
			r.res.fail("%q: repeats a wrong first response", r.pool[qi].Dirty)
		}
	}
}

// mrr is the mean reciprocal rank over the queries that were judged.
func (r *run) mrr() float64 {
	var sum float64
	n := 0
	for qi, ok := range r.seen {
		if ok {
			sum += reciprocalRank(r.own[qi], r.pool[qi].Truth)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// timedSeq is the workload's timed op sequence, and the untimed prefix
// that warms it up: one pass for the workloads that walk their pool, a
// tenth of the ops for the Zipf draw (a pass over the whole pool would
// leave the cache holding the pool's tail, not its popular head).
func (r *run) timedSeq() (warm, timed []int32) {
	ops := r.cfg.opsFor(r.def)
	n := len(r.pool)
	switch {
	case r.def.zipf:
		all := zipfSeq(r.cfg.seed+21, ops+ops/10, n, 1.1)
		return all[:ops/10], all[ops/10:]
	case r.def.passes:
		passes := (ops + n/2) / n
		if passes < 3 {
			passes = 3
		}
		return repeatSeq(n, 1), repeatSeq(n, passes)
	default:
		all := repeatSeq(n, (ops+n-1)/n)
		return repeatSeq(n, 1), all[:ops]
	}
}

// reads runs the warm-up and the timed read phase and fills in the read
// metrics.
func (r *run) reads() error {
	warmSeq, seq := r.timedSeq()
	r.in.fingerprintOps(r.def.name, r.pool, seq)

	warm := closedLoop(r.sh, warmSeq)
	if r.def.selfRef {
		// The control's reference is its own first answer. What can be
		// checked without a second implementation is that every later
		// pass repeats it, and the paper's guarantee that a suggested
		// query has a non-empty result.
		r.ref = make([][]sug, len(r.pool))
		for i, qi := range warmSeq {
			if warm.err[i] != nil {
				return warm.err[i]
			}
			r.ref[qi], _, _ = r.sh.answer(warm.res[i])
			for _, s := range warm.res[i].([]xclean.Suggestion) {
				if s.Entities < 1 {
					r.res.fail("%q: suggestion %q has no matching entity", r.pool[qi].Dirty, s.Query)
				}
			}
		}
	}
	r.judge(warmSeq, warm, r.ref)

	lr := closedLoop(r.sh, seq)
	r.judge(seq, lr, r.ref)

	lat := durationsUs(lr.lat)
	if r.def.passes {
		lat = perQueryMedian(splitPasses(lr.lat, len(r.pool)))
	}
	r.res.set("latency_p50_us", percentile(lat, 50))
	r.res.set("latency_p95_us", percentile(lat, 95))
	r.res.set("throughput_qps", float64(len(seq))/lr.wall.Seconds())
	r.res.set("allocs_per_op", float64(lr.mallocs)/float64(len(seq)))
	r.res.set("bytes_per_op", float64(lr.bytes)/float64(len(seq)))
	r.res.set("mrr", r.mrr())
	return nil
}

// splitPasses cuts the latencies of whole passes over n queries into one
// slice per pass.
func splitPasses(lat []time.Duration, n int) [][]time.Duration {
	byPass := make([][]time.Duration, len(lat)/n)
	for p := range byPass {
		byPass[p] = lat[p*n : (p+1)*n]
	}
	return byPass
}

// addedDoc is one spare article a write sequence added, and whether it
// is still in the corpus.
type addedDoc struct {
	doc  []byte
	live bool
}

// mixed runs one writer applying ops to the shape's primary engine
// beside one reader that queries it in a closed loop until the writer
// ends. Every op runs inside timed, which is told what it is ("read",
// "add" or "remove") and its ordinal; reads come from another goroutine
// than writes. Spare articles are taken from firstDecoy on.
func mixed(sh *shape, in *inputs, queries []query, ops []writeOp, firstDecoy int,
	timed func(kind string, n int, fn func())) (adds []addedDoc, errs []error) {
	eng := sh.primary
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			q := &queries[i%len(queries)]
			timed("read", i+1, func() { eng.Suggest(q.Dirty) })
		}
	}()
	nBase := len(in.dblpDocs) // a live add gets the next top-level ordinal
	for i, op := range ops {
		var err error
		if op.add {
			doc := in.decoys[firstDecoy+len(adds)]
			timed("add", i+1, func() { err = sh.addDoc(doc) })
			adds = append(adds, addedDoc{doc: doc, live: err == nil})
		} else {
			code := fmt.Sprintf("1.%d", nBase+1+op.victim)
			timed("remove", i+1, func() { err = eng.RemoveDocument(code) })
			adds[op.victim].live = false
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	close(done)
	wg.Wait()
	return adds, errs
}

// ingest runs ingest_mixed's timed phase — one writer beside one reader
// — then settles the stack and probes it against a cold rebuild of the
// final corpus.
func (r *run) ingest() error {
	eng := r.sh.primary
	size := r.cfg.size()
	ops := writeSeq(r.cfg.seed+30, r.cfg.opsFor(r.def))
	probe := make([]int32, 0, size.probeQueries)
	for i := 0; i < len(r.pool) && i < size.probeQueries; i++ {
		probe = append(probe, int32(i))
	}
	r.in.fingerprintOps(r.def.name, r.pool, probe, writeSeqBytes(ops))

	// Reader warm-up: one pass before the first write.
	closedLoop(r.sh, repeatSeq(len(r.pool), 1))

	var writeLat, readLat []time.Duration
	t0 := time.Now()
	adds, errs := mixed(r.sh, r.in, r.pool, ops, r.nextDecoy, func(kind string, _ int, fn func()) {
		s := time.Now()
		fn()
		if kind == "read" {
			readLat = append(readLat, time.Since(s))
		} else {
			writeLat = append(writeLat, time.Since(s))
		}
	})
	wall := time.Since(t0)
	r.nextDecoy += len(adds)
	r.res.Attempted += len(ops) + len(readLat)
	for _, err := range errs {
		r.res.fail("write op: %v", err)
	}
	r.res.set("latency_p50_us", percentile(durationsUs(readLat), 50))
	r.res.set("throughput_qps", float64(len(readLat))/wall.Seconds())
	r.res.set("ingest_docs_per_s", float64(len(adds))/wall.Seconds())
	r.res.set("write_p75_us", percentile(durationsUs(writeLat), 75))

	// The post-write probe: a settled stack, single client, so that the
	// tail, the allocation counts and the answers are the stack's own
	// and not an accident of where compaction happened to be.
	if err := settle(eng); err != nil {
		return err
	}
	final := append([][]byte(nil), r.in.dblpDocs...)
	r.liveXML = len(r.in.dblpXML)
	for _, a := range adds {
		if a.live {
			final = append(final, a.doc)
			r.liveXML += len(a.doc)
		}
	}
	probePool := make([]query, len(probe))
	for i, qi := range probe {
		probePool[i] = r.pool[qi]
	}
	cold, err := referenceAnswers(probePool, map[string][]byte{corpusDBLP: corpusXML("dblp", final)})
	if err != nil {
		return err
	}
	ref := make([][]sug, len(r.pool))
	copy(ref, cold) // the probe is the pool's first queries, so indices agree
	var seq []int32
	for p := 0; p < 3; p++ {
		seq = append(seq, probe...)
	}
	lr := closedLoop(r.sh, seq)
	r.judge(seq, lr, ref)
	r.res.set("latency_p95_us", percentile(perQueryMedian(splitPasses(lr.lat, len(probe))), 95))
	r.res.set("allocs_per_op", float64(lr.mallocs)/float64(len(seq)))
	r.res.set("bytes_per_op", float64(lr.bytes)/float64(len(seq)))
	r.res.set("mrr", r.mrr())
	return nil
}

// lifecycle is how every workload ends: the shape takes a burst of live
// adds through its own write path, is flushed and saved as a snapshot,
// and is cold-started from those bytes. It yields the write, storage
// and restart metrics on every shape, so a change to the write path or
// the storage form shows on the workloads that otherwise only read.
func (r *run) lifecycle() error {
	size := r.cfg.size()
	if !r.def.ingest {
		lat := make([]time.Duration, 0, size.burstAdds)
		t0 := time.Now()
		for i := 0; i < size.burstAdds; i++ {
			doc := r.in.decoys[r.nextDecoy+i]
			s := time.Now()
			err := r.sh.addDoc(doc)
			lat = append(lat, time.Since(s))
			r.res.Attempted++
			if err != nil {
				r.res.fail("burst add: %v", err)
				continue
			}
			r.liveXML += len(doc)
		}
		wall := time.Since(t0)
		r.nextDecoy += size.burstAdds
		r.res.set("ingest_docs_per_s", float64(size.burstAdds)/wall.Seconds())
		r.res.set("write_p75_us", percentile(durationsUs(lat), 75))
	}

	var stored int64
	snapshot := func(i int) string { return filepath.Join(r.dir, fmt.Sprintf("persist-%d.seg", i)) }
	for i, eng := range r.sh.persist {
		if err := eng.FlushSegments(context.Background()); err != nil {
			return err
		}
		if err := eng.SaveSnapshot(snapshot(i)); err != nil {
			return err
		}
		fi, err := os.Stat(snapshot(i))
		if err != nil {
			return err
		}
		stored += fi.Size()
	}
	r.res.set("stored_bytes_per_corpus_byte", float64(stored)/float64(r.liveXML))

	// Cold start: open the snapshot and answer one clean query, which
	// lands the lazy FastSS build on the first answer as a restart does.
	probe := r.pool[0]
	for i := range r.pool {
		if r.pool[i].Corpus == corpusDBLP && strings.HasSuffix(r.pool[i].Set, "CLEAN") {
			probe = r.pool[i]
			break
		}
	}
	var cold []float64
	runtime.GC() // start every restart from a quiet heap
	for i := 0; i < size.coldStarts; i++ {
		t0 := time.Now()
		eng, err := xclean.OpenSnapshot(snapshot(0), engineOpts(2))
		if err != nil {
			return err
		}
		got := eng.Suggest(probe.Dirty)
		cold = append(cold, float64(time.Since(t0))/1e6)
		r.res.Attempted++
		if len(got) == 0 {
			r.res.fail("cold start: %q got no suggestion", probe.Dirty)
		}
	}
	r.res.set("time_to_first_answer_ms", median(cold))
	return nil
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(def *workloadDef, cfg runConfig) (*workloadResult, error) {
	r := &run{
		cfg: cfg, def: def,
		dir: filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%s-%d", def.name, os.Getpid())),
		res: &workloadResult{Workload: def.name, Metrics: map[string]metric{}},
	}
	defer r.closeShape()
	r.res.Host = readHost()
	calibStart := calibNs(cfg.calibTries())

	setupS, err := r.setUp()
	if err != nil {
		return nil, err
	}
	r.res.set("setup_s", setupS)
	r.res.set("heap_mb", heapMB())

	if !def.selfRef && !def.ingest {
		docs := map[string][]byte{corpusDBLP: r.in.dblpXML, corpusINEX: r.in.wikiXML}
		if r.ref, err = referenceAnswers(r.pool, docs); err != nil {
			return nil, err
		}
	}
	if def.ingest {
		err = r.ingest()
	} else {
		err = r.reads()
	}
	if err != nil {
		return nil, err
	}
	if err := r.lifecycle(); err != nil {
		return nil, err
	}

	r.res.set("correct_share", 1-float64(r.res.Failed)/float64(r.res.Attempted))
	r.res.Correct = r.res.Failed == 0
	r.res.Fingerprints = r.in.fp
	r.res.Host.LoadAfter = loadAverage()
	r.res.Unstable, r.res.UnstableWhy = noiseGuard(calibStart, calibNs(cfg.calibTries()), r.res.Host.LoadAfter, r.res.Host.NProc)
	return r.res, nil
}
