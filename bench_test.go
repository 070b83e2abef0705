// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VII), one testing.B per experiment, plus the
// design-choice ablations of DESIGN.md §5. Quality metrics (MRR,
// Precision@N) are attached via b.ReportMetric; wall-clock columns are
// the benchmark timings themselves.
//
//	go test -bench=. -benchmem
//
// Human-readable versions of the same tables: cmd/xbench.
package xclean

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"xclean/internal/core"
	"xclean/internal/dataset"
	"xclean/internal/eval"
	"xclean/internal/fastss"
	"xclean/internal/invindex"
	"xclean/internal/queryset"
	"xclean/internal/tokenizer"
)

var (
	benchOnce sync.Once
	benchW    *eval.Workbench
)

// benchWorkbench builds the shared corpus/query environment once per
// process. Sizes are chosen so the full suite runs in minutes while
// keeping the paper's data-centric vs document-centric contrast.
func benchWorkbench(b *testing.B) *eval.Workbench {
	b.Helper()
	benchOnce.Do(func() {
		benchW = eval.NewWorkbench(eval.WorkbenchConfig{
			Seed:          42,
			DBLPArticles:  10000,
			WikiArticles:  1000,
			QueriesPerSet: 30,
		})
	})
	return benchW
}

// runSet drives one system over one query set inside the benchmark
// loop and reports its quality metrics.
func runSet(b *testing.B, s eval.Suggester, set string, w *eval.Workbench) {
	qs := w.Sets[set]
	if len(qs) == 0 {
		b.Skip("empty query set")
	}
	res := eval.Run(s, qs, 10, tokenizer.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Suggest(qs[i%len(qs)].Dirty)
	}
	b.StopTimer()
	b.ReportMetric(res.MRR, "MRR")
	b.ReportMetric(res.PrecisionAt[0], "P@1")
}

// BenchmarkTable1DatasetStats regenerates Table I: corpus generation
// plus index construction for both datasets.
func BenchmarkTable1DatasetStats(b *testing.B) {
	for _, kind := range []string{"DBLP", "INEX"} {
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var st IndexStats
				if kind == "DBLP" {
					c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 1, Articles: 3000})
					st = FromTree(c.Tree, Options{}).Stats()
				} else {
					c := dataset.GenerateWiki(dataset.WikiConfig{Seed: 1, Articles: 300})
					st = FromTree(c.Tree, Options{}).Stats()
				}
				if i == 0 {
					b.ReportMetric(float64(st.Nodes), "nodes")
					b.ReportMetric(float64(st.MaxDepth), "maxdepth")
					b.ReportMetric(float64(st.DistinctTerms), "terms")
				}
			}
		})
	}
}

// BenchmarkTable2QuerySets regenerates Table II: sampling clean
// queries and building the RAND and RULE perturbed sets.
func BenchmarkTable2QuerySets(b *testing.B) {
	w := benchWorkbench(b)
	total := 0
	for _, set := range w.SortedSetNames() {
		total += len(w.Sets[set])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clean := w.DBLP.SampleQueries(int64(i), 20)
		p := queryset.NewPerturber(int64(i), w.DBLPIndex.Vocab)
		p.MakeRand(clean)
		p.MakeRule(clean)
	}
	b.StopTimer()
	b.ReportMetric(float64(total), "queries")
}

// BenchmarkFig1Bias regenerates the Figure 1 micro-scenario.
func BenchmarkFig1Bias(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	xc := w.XClean(set, nil)
	py := w.PY08(set, nil)
	disagreements := 0
	for _, q := range w.Sets[set] {
		x := xc.Suggest(q.Dirty)
		p := py.Suggest(q.Dirty)
		if len(x) > 0 && len(p) > 0 && x[0].Query() != p[0].Query() {
			disagreements++
		}
	}
	q := w.Sets[set][0].Dirty
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xc.Suggest(q)
	}
	b.StopTimer()
	b.ReportMetric(float64(disagreements), "disagreements")
}

// BenchmarkFig3MRR regenerates Figure 3: MRR of all four systems on
// all six query sets.
func BenchmarkFig3MRR(b *testing.B) {
	w := benchWorkbench(b)
	systems := map[string]func(set string) eval.Suggester{
		"XClean": func(set string) eval.Suggester { return w.XClean(set, nil) },
		"PY08":   func(set string) eval.Suggester { return w.PY08(set, nil) },
		"SE1":    func(string) eval.Suggester { return w.SE1() },
		"SE2":    func(string) eval.Suggester { return w.SE2() },
	}
	for _, name := range []string{"XClean", "PY08", "SE1", "SE2"} {
		mk := systems[name]
		for _, set := range w.SortedSetNames() {
			b.Run(name+"/"+set, func(b *testing.B) {
				runSet(b, mk(set), set, w)
			})
		}
	}
}

// BenchmarkFig4PrecisionAtN regenerates Figure 4: Precision@N per set.
func BenchmarkFig4PrecisionAtN(b *testing.B) {
	w := benchWorkbench(b)
	for _, set := range w.SortedSetNames() {
		b.Run(set, func(b *testing.B) {
			qs := w.Sets[set]
			e := w.XClean(set, nil)
			res := eval.Run(e, qs, 10, tokenizer.Options{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Suggest(qs[i%len(qs)].Dirty)
			}
			b.StopTimer()
			b.ReportMetric(res.PrecisionAt[0], "P@1")
			b.ReportMetric(res.PrecisionAt[4], "P@5")
			b.ReportMetric(res.PrecisionAt[9], "P@10")
		})
	}
}

// BenchmarkTable3Example regenerates Table III's example comparison on
// the first RULE query.
func BenchmarkTable3Example(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRule
	qs := w.Sets[set]
	if len(qs) == 0 {
		b.Skip("empty RULE set")
	}
	xc := w.XClean(set, nil)
	py := w.PY08(set, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xc.Suggest(qs[0].Dirty)
		py.Suggest(qs[0].Dirty)
	}
}

// BenchmarkTable4BetaSweep regenerates Table IV: MRR vs β.
func BenchmarkTable4BetaSweep(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, beta := range []float64{-1, 1, 2, 5, 8, 10} {
		label := beta
		if label < 0 {
			label = 0
		}
		b.Run(fmt.Sprintf("beta=%g", label), func(b *testing.B) {
			bv := beta
			runSet(b, w.XClean(set, func(c *core.Config) { c.Beta = bv }), set, w)
		})
	}
}

// BenchmarkTable5GammaSweep regenerates Table V: MRR vs γ for XClean
// and PY08.
func BenchmarkTable5GammaSweep(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetINEXRule
	for _, system := range []string{"XClean", "PY08"} {
		for _, gamma := range []int{10, 100, 1000, 10000} {
			g := gamma
			b.Run(fmt.Sprintf("%s/gamma=%d", system, g), func(b *testing.B) {
				var s eval.Suggester
				if system == "XClean" {
					s = w.XClean(set, func(c *core.Config) { c.Gamma = g })
				} else {
					s = w.PY08(set, func(c *core.Config) { c.Gamma = g })
				}
				runSet(b, s, set, w)
			})
		}
	}
}

// BenchmarkTable6RunningTime regenerates Table VI: per-query latency of
// XClean vs PY08 on every set (the ns/op column is the table).
func BenchmarkTable6RunningTime(b *testing.B) {
	w := benchWorkbench(b)
	for _, system := range []string{"XClean", "PY08"} {
		for _, set := range w.SortedSetNames() {
			b.Run(system+"/"+set, func(b *testing.B) {
				var s eval.Suggester
				if system == "XClean" {
					s = w.XClean(set, nil)
				} else {
					s = w.PY08(set, nil)
				}
				qs := w.Sets[set]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Suggest(qs[i%len(qs)].Dirty)
				}
			})
		}
	}
}

// BenchmarkBaselineHMM compares the related-work HMM model (Pu [7])
// against XClean on both corpora. Expected shape, per the paper's
// analysis: the HMM's sequential-travel assumption and aggressive
// state pruning cost quality on dirty sets, and its O(l·S²) Viterbi
// pass costs time, while XClean additionally guarantees non-empty
// results.
func BenchmarkBaselineHMM(b *testing.B) {
	w := benchWorkbench(b)
	for _, set := range []string{eval.SetDBLPRand, eval.SetINEXRand} {
		for _, system := range []string{"XClean", "HMM"} {
			sv := system
			b.Run(set+"/"+sv, func(b *testing.B) {
				var s eval.Suggester
				if sv == "XClean" {
					s = w.XClean(set, nil)
				} else {
					s = w.HMM(set, nil)
				}
				runSet(b, s, set, w)
			})
		}
	}
}

// BenchmarkAblationScoreMode compares Algorithm 1's matched-only
// scoring against the exact Eq. (8) sum.
func BenchmarkAblationScoreMode(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, mode := range []core.ScoreMode{core.ScoreModeMatchedOnly, core.ScoreModeExact} {
		name := "matched-only"
		if mode == core.ScoreModeExact {
			name = "exact"
		}
		m := mode
		b.Run(name, func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.ScoreMode = m }), set, w)
		})
	}
}

// BenchmarkAblationSkipping compares galloping vs linear merged-list
// skipping.
func BenchmarkAblationSkipping(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, linear := range []bool{false, true} {
		name := "galloping"
		if linear {
			name = "linear"
		}
		lv := linear
		b.Run(name, func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.LinearSkip = lv }), set, w)
		})
	}
}

// BenchmarkAblationEviction compares the probabilistic
// lowest-estimate victim rule against FIFO at a tight γ.
func BenchmarkAblationEviction(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetINEXRule
	for _, pol := range []core.EvictionPolicy{core.EvictLowestEstimate, core.EvictFIFO} {
		name := "lowest-estimate"
		if pol == core.EvictFIFO {
			name = "fifo"
		}
		p := pol
		b.Run(name, func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) {
				c.Eviction = p
				c.Gamma = 50
			}), set, w)
		})
	}
}

// BenchmarkAblationPrior compares the entity priors of Eq. (8):
// uniform (the paper's), length-proportional, and a custom log-style
// prior. On perturbation-derived ground truth the priors should be
// near-equivalent in quality (the generalization hook costs nothing);
// length priors shift scores toward content-rich entities.
func BenchmarkAblationPrior(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, prior := range []core.Prior{core.PriorUniform, core.PriorLength} {
		name := "uniform"
		if prior == core.PriorLength {
			name = "length"
		}
		pv := prior
		b.Run(name, func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.Prior = pv }), set, w)
		})
	}
}

// BenchmarkAblationBigram measures the bigram-coherence extension
// against the paper's pure unigram model. Expected shape: equal or
// slightly better quality (perturbed queries rarely hinge on word
// order) at negligible extra cost — the factor is one table lookup per
// adjacent keyword pair at finalize time.
func BenchmarkAblationBigram(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetINEXRand
	for _, bigram := range []bool{false, true} {
		name := "unigram"
		if bigram {
			name = "bigram"
		}
		bv := bigram
		b.Run(name, func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.Bigram = bv }), set, w)
		})
	}
}

// BenchmarkAblationDepthReduction sweeps r of Eq. (7), the result-type
// utility's depth discount. The paper fixes r=0.8 citing XReal;
// expected shape: r→1 stops discounting deep types (risking
// keyword-only leaf types as results), small r over-favours shallow
// types; quality is flat in a broad middle band.
func BenchmarkAblationDepthReduction(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetINEXRand
	for _, r := range []float64{0.5, 0.8, 0.95} {
		rv := r
		b.Run(fmt.Sprintf("r=%g", rv), func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.R = rv }), set, w)
		})
	}
}

// BenchmarkAblationMu sweeps the Dirichlet smoothing μ of Eq. (9). The
// paper adopts μ≈2000 from the language-modeling literature; expected
// shape: tiny μ sharpens length effects, huge μ washes out entity
// evidence toward the background; perturbation ground truth is
// tolerant across decades.
func BenchmarkAblationMu(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, mu := range []float64{10, 200, 2000, 20000} {
		mv := mu
		b.Run(fmt.Sprintf("mu=%g", mv), func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.Mu = mv }), set, w)
		})
	}
}

// BenchmarkAblationEpsilon sweeps the variant threshold ε on the RULE
// set. Section VII-D's efficiency analysis hinges on this: human
// misspellings need ε≈3 to be recoverable at all, and each increment
// multiplies the variant space (visible in ns/op).
func BenchmarkAblationEpsilon(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRule
	for _, eps := range []int{1, 2, 3} {
		ev := eps
		b.Run(fmt.Sprintf("eps=%d", ev), func(b *testing.B) {
			cfg := core.Config{Epsilon: ev}
			s := core.NewEngine(w.IndexFor(set), cfg)
			runSet(b, s, set, w)
		})
	}
}

// BenchmarkAblationMinDepth sweeps the minimal depth threshold d.
func BenchmarkAblationMinDepth(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, d := range []int{1, 2, 3} {
		dv := d
		b.Run(fmt.Sprintf("d=%d", dv), func(b *testing.B) {
			runSet(b, w.XClean(set, func(c *core.Config) { c.MinDepth = dv }), set, w)
		})
	}
}

// BenchmarkAblationSemantics compares the result-type and SLCA entity
// semantics on both corpora (Section VI-B's claim: SLCA holds up on
// data-centric data, degrades on document-centric data).
func BenchmarkAblationSemantics(b *testing.B) {
	w := benchWorkbench(b)
	for _, set := range []string{eval.SetDBLPRand, eval.SetINEXRand} {
		for _, sem := range []string{"type", "slca", "elca"} {
			sv := sem
			b.Run(set+"/"+sv, func(b *testing.B) {
				var s eval.Suggester
				switch sv {
				case "type":
					s = w.XClean(set, nil)
				case "slca":
					s = w.SLCA(set, nil)
				default:
					s = w.ELCA(set, nil)
				}
				runSet(b, s, set, w)
			})
		}
	}
}

// BenchmarkAblationCompression compares query processing over raw and
// block-compressed posting lists, reporting the index footprints. The
// expected shape: identical quality (differentially tested in
// internal/core), several-fold smaller postings storage, modest decode
// overhead per query.
func BenchmarkAblationCompression(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	for _, compact := range []bool{false, true} {
		name := "raw"
		if compact {
			name = "compressed"
		}
		cv := compact
		b.Run(name, func(b *testing.B) {
			var s *core.Engine
			if cv {
				s = w.XCleanCompact(set, nil)
			} else {
				s = w.XClean(set, nil)
			}
			var bytes int64
			if cv {
				bytes = w.CompactIndexFor(set).PostingsBytes()
			} else {
				bytes = w.DBLPIndex.PostingsBytes()
			}
			runSet(b, s, set, w)
			b.ReportMetric(float64(bytes), "postings-bytes")
		})
	}
}

// BenchmarkScalability sweeps the corpus size: index construction,
// per-query suggestion latency, and postings footprint at each scale.
// Expected shape: build time and footprint grow linearly with corpus
// size; query latency grows sublinearly (skipping touches only the
// subtrees containing variants).
func BenchmarkScalability(b *testing.B) {
	for _, articles := range []int{2000, 5000, 10000} {
		n := articles
		b.Run(fmt.Sprintf("build/articles=%d", n), func(b *testing.B) {
			c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 5, Articles: n})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FromTree(c.Tree, Options{})
			}
		})
		b.Run(fmt.Sprintf("query/articles=%d", n), func(b *testing.B) {
			c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 5, Articles: n})
			e := FromTree(c.Tree, Options{MaxErrors: 2})
			qs := c.SampleQueries(6, 20)
			p := queryset.NewPerturber(7, invindex.Build(c.Tree, tokenizer.Options{}).Vocab)
			dirty := make([]string, len(qs))
			for i, q := range qs {
				if d, ok := p.Rand(q); ok {
					dirty[i] = d
				} else {
					dirty[i] = q
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Suggest(dirty[i%len(dirty)])
			}
		})
	}
}

// BenchmarkStreamBuild compares streaming index construction against
// parse-then-build. Expected shape: equal CPU time and near-equal
// total allocations (the index dominates at bench scale). The
// streaming path's real benefit is peak retention — the parsed tree is
// never resident alongside the index — which matters when document
// size rivals RAM (the paper's 5.8 GB INEX), not in B/op totals here.
func BenchmarkStreamBuild(b *testing.B) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 8, Articles: 3000})
	var sb strings.Builder
	if _, err := c.Tree.WriteXML(&sb); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := Open(strings.NewReader(doc), Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = e
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := OpenStreaming(strings.NewReader(doc), Options{})
			if err != nil {
				b.Fatal(err)
			}
			_ = e
		}
	})
}

// BenchmarkIncrementalAdd measures AddDocument against the full
// rebuild it replaces. Expected shape: per-document cost is constant
// while rebuild cost grows with the corpus.
func BenchmarkIncrementalAdd(b *testing.B) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 9, Articles: 5000})
	doc := `<article><author>doe</author><title>incremental index maintenance</title></article>`
	b.Run("add-one", func(b *testing.B) {
		e := FromTree(c.Tree, Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.AddDocument(strings.NewReader(doc)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FromTree(c.Tree, Options{})
		}
	})
}

// BenchmarkSuggest is the canonical hot-path benchmark: one engine at
// the paper's defaults (ε=2 so variant sets are non-trivial), a fixed
// dirty-query mix, no observability sink attached. The always-compiled
// instrumentation hooks have a budget of ≤2% over an engine with no
// hooks at all; no gate enforces it — run this and
// BenchmarkSuggestObserved A/B by hand to see what the hooks cost. It
// deliberately avoids the shared workbench so a run builds only one
// small corpus.
func BenchmarkSuggest(b *testing.B) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 42, Articles: 5000})
	e := FromTree(c.Tree, Options{MaxErrors: 2, Workers: 1})
	qs := c.SampleQueries(6, 20)
	p := queryset.NewPerturber(7, invindex.Build(c.Tree, tokenizer.Options{}).Vocab)
	dirty := make([]string, len(qs))
	for i, q := range qs {
		if d, ok := p.Rand(q); ok {
			dirty[i] = d
		} else {
			dirty[i] = q
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Suggest(dirty[i%len(dirty)])
	}
}

// BenchmarkSuggestFlattened is BenchmarkSuggest against an engine that
// took a live write and was then flushed to a single segment: queries
// serve through the segment store's flattened fast path. Run it A/B
// against BenchmarkSuggest to see what that path adds over the
// monolith.
func BenchmarkSuggestFlattened(b *testing.B) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 42, Articles: 5000})
	e := FromTree(c.Tree, Options{MaxErrors: 2, Workers: 1})
	err := e.AddDocument(strings.NewReader(
		`<article><author>doe</author><title>flattened segment benchmark</title></article>`))
	if err != nil {
		b.Fatal(err)
	}
	if err := e.FlushSegments(context.Background()); err != nil {
		b.Fatal(err)
	}
	qs := c.SampleQueries(6, 20)
	p := queryset.NewPerturber(7, invindex.Build(c.Tree, tokenizer.Options{}).Vocab)
	dirty := make([]string, len(qs))
	for i, q := range qs {
		if d, ok := p.Rand(q); ok {
			dirty[i] = d
		} else {
			dirty[i] = q
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Suggest(dirty[i%len(dirty)])
	}
}

// BenchmarkSuggestObserved is BenchmarkSuggest with a metrics sink
// attached — the delta against BenchmarkSuggest is the full cost of
// stage timing and sink publication. The pair is run A/B by hand; no
// gate compares them.
func BenchmarkSuggestObserved(b *testing.B) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 42, Articles: 5000})
	e := FromTree(c.Tree, Options{MaxErrors: 2, Workers: 1})
	e.SetObserver(NewObserver())
	qs := c.SampleQueries(6, 20)
	p := queryset.NewPerturber(7, invindex.Build(c.Tree, tokenizer.Options{}).Vocab)
	dirty := make([]string, len(qs))
	for i, q := range qs {
		if d, ok := p.Rand(q); ok {
			dirty[i] = d
		} else {
			dirty[i] = q
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Suggest(dirty[i%len(dirty)])
	}
}

// BenchmarkSuggestContext is BenchmarkSuggest through the
// context-taking entry point with a live (cancellable) context — the
// delta against BenchmarkSuggest is the full cost of the cooperative
// cancellation polls in the anchor-subtree loop (one channel select
// per CancelCheckEvery subtrees), which must stay within the same ≤2%
// budget as the instrumentation hooks. A context.Background() call
// skips the polls entirely (Done() is nil), so only cancellable
// callers pay even this much.
func BenchmarkSuggestContext(b *testing.B) {
	c := dataset.GenerateDBLP(dataset.DBLPConfig{Seed: 42, Articles: 5000})
	e := FromTree(c.Tree, Options{MaxErrors: 2, Workers: 1})
	qs := c.SampleQueries(6, 20)
	p := queryset.NewPerturber(7, invindex.Build(c.Tree, tokenizer.Options{}).Vocab)
	dirty := make([]string, len(qs))
	for i, q := range qs {
		if d, ok := p.Rand(q); ok {
			dirty[i] = d
		} else {
			dirty[i] = q
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(ctx, Request{Query: dirty[i%len(dirty)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelWorkers measures the sharded anchor-subtree scan of
// Algorithm 1 at increasing worker counts, on the longest dirty query
// of the DBLP RAND set (more keywords → more per-subtree enumeration
// work to spread across shards). Workers=1 is the exact sequential
// path; the differential tests in internal/core pin that every worker
// count returns the same suggestions.
func BenchmarkParallelWorkers(b *testing.B) {
	w := benchWorkbench(b)
	set := eval.SetDBLPRand
	qs := w.Sets[set]
	if len(qs) == 0 {
		b.Skip("empty query set")
	}
	query := qs[0].Dirty
	for _, q := range qs {
		if len(strings.Fields(q.Dirty)) > len(strings.Fields(query)) {
			query = q.Dirty
		}
	}
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > counts[len(counts)-1] {
		counts = append(counts, n)
	}
	for _, n := range counts {
		nw := n
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			e := w.XClean(set, func(c *core.Config) { c.Workers = nw })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Suggest(query)
			}
		})
	}
}

// BenchmarkAblationVariantGen compares FastSS against brute-force
// variant generation over the DBLP vocabulary.
func BenchmarkAblationVariantGen(b *testing.B) {
	w := benchWorkbench(b)
	vocab := w.DBLPIndex.VocabList()
	query := "architecure"
	b.Run("fastss", func(b *testing.B) {
		ix := fastss.Build(vocab, fastss.Config{MaxErrors: 2, PartitionLen: 12})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Search(query)
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fastss.BruteForce(vocab, query, 2)
		}
	})
}

// BenchmarkAblationFastSSPartition compares plain vs partitioned
// FastSS index construction and search.
func BenchmarkAblationFastSSPartition(b *testing.B) {
	w := benchWorkbench(b)
	vocab := w.DBLPIndex.VocabList()
	for _, lp := range []int{0, 8, 12} {
		lpv := lp
		b.Run(fmt.Sprintf("lp=%d", lpv), func(b *testing.B) {
			ix := fastss.Build(vocab, fastss.Config{MaxErrors: 2, PartitionLen: lpv})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Search("probabilistc")
			}
			b.StopTimer()
			b.ReportMetric(float64(ix.Buckets()), "buckets")
		})
	}
}
