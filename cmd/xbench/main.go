// Command xbench regenerates every table and figure of the XClean
// paper's evaluation (Section VII) on the synthetic stand-in corpora:
//
//	xbench -exp all
//	xbench -exp fig3 -queries 100
//	xbench -exp table5 -dblp 30000
//
// Experiments: table1 table2 table3 table4 table5 table6 fig1 fig3
// fig4 ablations extensions all. See EXPERIMENTS.md for the expected
// shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"xclean/internal/core"
	"xclean/internal/eval"
	"xclean/internal/tokenizer"
)

// workers is the -workers flag: Config.Workers applied to every XClean
// engine the experiments build (0 = GOMAXPROCS, 1 = sequential).
var workers int

// xc builds an XClean engine for a set, applying the experiment's mod
// and then the global -workers flag.
func xc(w *eval.Workbench, set string, mod func(*core.Config)) *core.Engine {
	return w.XClean(set, func(c *core.Config) {
		if mod != nil {
			mod(c)
		}
		c.Workers = workers
	})
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|table3|table4|table5|table6|fig1|fig3|fig4|ablations|extensions|all")
		seed    = flag.Int64("seed", 42, "generation seed")
		dblp    = flag.Int("dblp", 20000, "articles in the DBLP-like corpus")
		wiki    = flag.Int("wiki", 2000, "articles in the INEX-like corpus")
		queries = flag.Int("queries", 50, "clean queries per set")
		nw      = flag.Int("workers", 0, "goroutines per suggestion call (0 = GOMAXPROCS, 1 = sequential)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	workers = *nw
	runs, err := resolve(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "building workbench (dblp=%d wiki=%d queries=%d seed=%d)...\n",
		*dblp, *wiki, *queries, *seed)
	start := time.Now()
	w := eval.NewWorkbench(eval.WorkbenchConfig{
		Seed:          *seed,
		DBLPArticles:  *dblp,
		WikiArticles:  *wiki,
		QueriesPerSet: *queries,
	})
	fmt.Fprintf(os.Stderr, "workbench ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	for _, run := range runs {
		run(w)
		fmt.Println()
	}
}

// runners maps each -exp name to its experiment.
var runners = map[string]func(*eval.Workbench){
	"table1":     table1,
	"table2":     table2,
	"table3":     table3,
	"table4":     table4,
	"table5":     table5,
	"table6":     table6,
	"fig1":       fig1,
	"fig3":       fig3,
	"fig4":       fig4,
	"ablations":  ablations,
	"extensions": extensions,
}

// allExperiments is the order -exp all runs them in.
var allExperiments = []string{"table1", "table2", "fig1", "table3", "fig3", "fig4", "table4", "table5", "table6", "ablations", "extensions"}

// resolve turns the -exp comma list into runners before any work is
// done, so an unknown name fails without building the workbench or
// running the experiments listed before it.
func resolve(exp string) ([]func(*eval.Workbench), error) {
	names := strings.Split(exp, ",")
	if exp == "all" {
		names = allExperiments
	}
	runs := make([]func(*eval.Workbench), len(names))
	for i, name := range names {
		run, ok := runners[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		runs[i] = run
	}
	return runs, nil
}

func header(title string) {
	fmt.Println("==", title, "==")
}

func tab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// table1 prints Table I: dataset statistics.
func table1(w *eval.Workbench) {
	header("Table I: dataset statistics")
	tw := tab()
	fmt.Fprintln(tw, "Dataset\tsize (MB)\t#node\tmax depth\tavg depth\tvocab")
	dblpStats := w.DBLP.Tree.ComputeStats()
	wikiStats := w.Wiki.Tree.ComputeStats()
	fmt.Fprintf(tw, "INEX*\t%.1f\t%d\t%d\t%.2f\t%d\n",
		float64(w.Wiki.Tree.SerializedSize())/(1<<20), wikiStats.Nodes,
		wikiStats.MaxDepth, wikiStats.AvgDepth(), w.WikiIndex.Vocab.Size())
	fmt.Fprintf(tw, "DBLP*\t%.1f\t%d\t%d\t%.2f\t%d\n",
		float64(w.DBLP.Tree.SerializedSize())/(1<<20), dblpStats.Nodes,
		dblpStats.MaxDepth, dblpStats.AvgDepth(), w.DBLPIndex.Vocab.Size())
	tw.Flush()
	fmt.Println("(* synthetic stand-ins; see DESIGN.md §3)")
}

// table2 prints Table II: query sets and sample queries.
func table2(w *eval.Workbench) {
	header("Table II: query sets and sample queries")
	tw := tab()
	fmt.Fprintln(tw, "Query Set\t#queries\tSample")
	for _, name := range w.SortedSetNames() {
		qs := w.Sets[name]
		sample := ""
		if len(qs) > 0 {
			sample = qs[0].Dirty
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", name, len(qs), sample)
	}
	tw.Flush()
}

// fig1 demonstrates the PY08 scoring bias of Figure 1 on the
// generated corpus.
func fig1(w *eval.Workbench) {
	header("Figure 1: scoring bias (PY08 vs XClean)")
	set := eval.SetDBLPRand
	xc := xc(w, set, nil)
	py := w.PY08(set, nil)
	shown := 0
	for _, q := range w.Sets[set] {
		x := xc.Suggest(q.Dirty)
		p := py.Suggest(q.Dirty)
		if len(x) == 0 || len(p) == 0 {
			continue
		}
		if x[0].Query() != p[0].Query() {
			fmt.Printf("dirty query : %s\n", q.Dirty)
			fmt.Printf("truth       : %s\n", q.Truth)
			fmt.Printf("XClean top  : %s (entities=%d)\n", x[0].Query(), x[0].Entities)
			fmt.Printf("PY08 top    : %s\n\n", p[0].Query())
			shown++
			if shown >= 3 {
				break
			}
		}
	}
	if shown == 0 {
		fmt.Println("(no disagreement in this sample; rerun with more queries)")
	}
}

// table3 prints Table III: example suggestions of both systems for one
// RULE query.
func table3(w *eval.Workbench) {
	header("Table III: example suggestions (first RULE query)")
	set := eval.SetDBLPRule
	if len(w.Sets[set]) == 0 {
		fmt.Println("(empty RULE set)")
		return
	}
	q := w.Sets[set][0]
	fmt.Printf("query: %s   (truth: %s)\n", q.Dirty, q.Truth)
	tw := tab()
	fmt.Fprintln(tw, "rank\tXClean\tPY08")
	x := xc(w, set, nil).Suggest(q.Dirty)
	p := w.PY08(set, nil).Suggest(q.Dirty)
	for i := 0; i < 5; i++ {
		xs, ps := "-", "-"
		if i < len(x) {
			xs = x[i].Query()
		}
		if i < len(p) {
			ps = p[i].Query()
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\n", i+1, xs, ps)
	}
	tw.Flush()
}

// fig3 prints the MRR comparison of all systems on all six sets.
func fig3(w *eval.Workbench) {
	header("Figure 3: MRR of all systems")
	opts := tokenizer.Options{}
	se1, se2 := w.SE1(), w.SE2()
	tw := tab()
	fmt.Fprintln(tw, "Query Set\tXClean\tPY08\tSE1\tSE2")
	for _, set := range w.SortedSetNames() {
		qs := w.Sets[set]
		x := eval.Run(xc(w, set, nil), qs, 10, opts)
		p := eval.Run(w.PY08(set, nil), qs, 10, opts)
		s1 := eval.Run(se1, qs, 1, opts)
		s2 := eval.Run(se2, qs, 1, opts)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", set, x.MRR, p.MRR, s1.MRR, s2.MRR)
	}
	tw.Flush()
	fmt.Println("(SE columns are lower bounds: the stand-ins return one suggestion)")

	// The headline claim (XClean ≫ PY08) with paired-bootstrap 95%
	// intervals — a check the paper's point estimates omit.
	fmt.Println("\nXClean − PY08 MRR delta (paired bootstrap, 95% CI):")
	tw = tab()
	fmt.Fprintln(tw, "Query Set\tΔMRR\t95% CI\tsignificant")
	for _, set := range w.SortedSetNames() {
		c := eval.Compare(w.PY08(set, nil), xc(w, set, nil),
			w.Sets[set], 2000, 11, opts)
		fmt.Fprintf(tw, "%s\t%+.2f\t[%+.2f, %+.2f]\t%v\n",
			set, c.Delta, c.CILow, c.CIHigh, c.Significant())
	}
	tw.Flush()
}

// fig4 prints Precision@N curves per query set.
func fig4(w *eval.Workbench) {
	header("Figure 4: Precision@N")
	opts := tokenizer.Options{}
	for _, set := range w.SortedSetNames() {
		qs := w.Sets[set]
		x := eval.Run(xc(w, set, nil), qs, 10, opts)
		p := eval.Run(w.PY08(set, nil), qs, 10, opts)
		fmt.Printf("%s (n=%d)\n", set, len(qs))
		tw := tab()
		fmt.Fprint(tw, "N\t")
		for n := 1; n <= 10; n++ {
			fmt.Fprintf(tw, "%d\t", n)
		}
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "XClean\t")
		for _, v := range x.PrecisionAt {
			fmt.Fprintf(tw, "%.2f\t", v)
		}
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "PY08\t")
		for _, v := range p.PrecisionAt {
			fmt.Fprintf(tw, "%.2f\t", v)
		}
		fmt.Fprintln(tw)
		tw.Flush()
	}
}

// table4 prints the β sweep (MRR vs error penalty).
func table4(w *eval.Workbench) {
	header("Table IV: MRR vs beta (gamma=1000)")
	opts := tokenizer.Options{}
	betas := []float64{-1, 1, 2, 5, 8, 10} // -1 encodes literal β=0
	tw := tab()
	fmt.Fprint(tw, "Query Set\t")
	for _, b := range betas {
		if b < 0 {
			b = 0
		}
		fmt.Fprintf(tw, "β=%g\t", b)
	}
	fmt.Fprintln(tw)
	for _, set := range w.SortedSetNames() {
		fmt.Fprintf(tw, "%s\t", set)
		for _, b := range betas {
			beta := b
			e := xc(w, set, func(c *core.Config) { c.Beta = beta })
			res := eval.Run(e, w.Sets[set], 10, opts)
			fmt.Fprintf(tw, "%.2f\t", res.MRR)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// table5 prints the γ sweep (MRR vs accumulators) for XClean and PY08.
func table5(w *eval.Workbench) {
	header("Table V: MRR vs gamma (beta=5)")
	opts := tokenizer.Options{}
	gammas := []int{10, 100, 1000, 10000}
	for _, system := range []string{"XClean", "PY08"} {
		tw := tab()
		fmt.Fprintf(tw, "%s\t", system)
		for _, g := range gammas {
			fmt.Fprintf(tw, "γ=%d\t", g)
		}
		fmt.Fprintln(tw)
		for _, set := range w.SortedSetNames() {
			fmt.Fprintf(tw, "%s\t", set)
			for _, g := range gammas {
				gamma := g
				var s eval.Suggester
				if system == "XClean" {
					s = xc(w, set, func(c *core.Config) { c.Gamma = gamma })
				} else {
					s = w.PY08(set, func(c *core.Config) { c.Gamma = gamma })
				}
				res := eval.Run(s, w.Sets[set], 10, opts)
				fmt.Fprintf(tw, "%.2f\t", res.MRR)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
}

// table6 prints per-query running times: the paper's mean column plus
// the tail percentiles an online deployment cares about.
func table6(w *eval.Workbench) {
	header("Table VI: running time (gamma=1000)")
	opts := tokenizer.Options{}
	tw := tab()
	fmt.Fprintln(tw, "Query Set\tXClean mean\tXClean p95\tPY08 mean\tPY08 p95\tratio")
	for _, set := range w.SortedSetNames() {
		qs := w.Sets[set]
		x := eval.Run(xc(w, set, nil), qs, 10, opts)
		p := eval.Run(w.PY08(set, nil), qs, 10, opts)
		ratio := float64(p.AvgTime) / float64(x.AvgTime)
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%v\t%.1fx\n", set,
			x.AvgTime.Round(time.Microsecond), x.Latency.P95.Round(time.Microsecond),
			p.AvgTime.Round(time.Microsecond), p.Latency.P95.Round(time.Microsecond), ratio)
	}
	tw.Flush()
}

// ablations prints the design-choice ablations of DESIGN.md §5.
func ablations(w *eval.Workbench) {
	header("Ablations")
	opts := tokenizer.Options{}
	set := eval.SetDBLPRand
	qs := w.Sets[set]

	rows := []struct {
		name string
		s    eval.Suggester
	}{
		{"default (matched-only, galloping, lowest-estimate)", xc(w, set, nil)},
		{"exact scoring", xc(w, set, func(c *core.Config) { c.ScoreMode = core.ScoreModeExact })},
		{"linear skip", xc(w, set, func(c *core.Config) { c.LinearSkip = true })},
		{"FIFO eviction, γ=50", xc(w, set, func(c *core.Config) { c.Eviction = core.EvictFIFO; c.Gamma = 50 })},
		{"lowest-estimate eviction, γ=50", xc(w, set, func(c *core.Config) { c.Gamma = 50 })},
		{"min depth d=1", xc(w, set, func(c *core.Config) { c.MinDepth = 1 })},
		{"min depth d=3", xc(w, set, func(c *core.Config) { c.MinDepth = 3 })},
		{"SLCA semantics", w.SLCA(set, nil)},
	}
	tw := tab()
	fmt.Fprintln(tw, "Variant\tMRR\tavg time")
	for _, r := range rows {
		res := eval.Run(r.s, qs, 10, opts)
		fmt.Fprintf(tw, "%s\t%.2f\t%v\n", r.name, res.MRR, res.AvgTime.Round(time.Microsecond))
	}
	tw.Flush()

	// Semantics comparison across both corpora (Sec. VI-B's claim:
	// SLCA works as well on data-centric, worse on document-centric;
	// ELCA is our superset extension).
	fmt.Println("\nSemantics comparison (MRR):")
	tw = tab()
	fmt.Fprintln(tw, "Query Set\tresult-type\tSLCA\tELCA")
	for _, s := range []string{eval.SetDBLPRand, eval.SetINEXRand} {
		rt := eval.Run(xc(w, s, nil), w.Sets[s], 10, opts)
		sl := eval.Run(w.SLCA(s, nil), w.Sets[s], 10, opts)
		el := eval.Run(w.ELCA(s, nil), w.Sets[s], 10, opts)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", s, rt.MRR, sl.MRR, el.MRR)
	}
	tw.Flush()
}

// extensions prints the beyond-the-paper extension comparisons: the
// HMM related-work baseline, entity priors, the bigram coherence
// factor, and compressed posting storage.
func extensions(w *eval.Workbench) {
	header("Extensions (beyond the paper)")
	opts := tokenizer.Options{}

	fmt.Println("HMM baseline (Pu [7], related work):")
	tw := tab()
	fmt.Fprintln(tw, "Query Set\tXClean MRR\tHMM MRR\tXClean mean\tHMM mean")
	for _, set := range []string{eval.SetDBLPRand, eval.SetINEXRand} {
		qs := w.Sets[set]
		x := eval.Run(xc(w, set, nil), qs, 10, opts)
		h := eval.Run(w.HMM(set, nil), qs, 10, opts)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%v\t%v\n", set, x.MRR, h.MRR,
			x.AvgTime.Round(time.Microsecond), h.AvgTime.Round(time.Microsecond))
	}
	tw.Flush()

	fmt.Println("\nEntity priors (Eq. (8) generalization) and bigram factor, DBLP-RAND:")
	set := eval.SetDBLPRand
	qs := w.Sets[set]
	rows := []struct {
		name string
		s    eval.Suggester
	}{
		{"uniform prior (paper)", xc(w, set, nil)},
		{"length prior", xc(w, set, func(c *core.Config) { c.Prior = core.PriorLength })},
		{"bigram coherence", xc(w, set, func(c *core.Config) { c.Bigram = true })},
	}
	tw = tab()
	fmt.Fprintln(tw, "Variant\tMRR\tmean time")
	for _, r := range rows {
		res := eval.Run(r.s, qs, 10, opts)
		fmt.Fprintf(tw, "%s\t%.2f\t%v\n", r.name, res.MRR, res.AvgTime.Round(time.Microsecond))
	}
	tw.Flush()

	fmt.Println("\nCompressed posting storage, DBLP-RAND:")
	raw := eval.Run(xc(w, set, nil), qs, 10, opts)
	comp := eval.Run(w.XCleanCompact(set, func(c *core.Config) { c.Workers = workers }), qs, 10, opts)
	tw = tab()
	fmt.Fprintln(tw, "Storage\tMRR\tmean time\tpostings bytes")
	fmt.Fprintf(tw, "raw\t%.2f\t%v\t%d\n", raw.MRR,
		raw.AvgTime.Round(time.Microsecond), w.DBLPIndex.PostingsBytes())
	fmt.Fprintf(tw, "compressed\t%.2f\t%v\t%d\n", comp.MRR,
		comp.AvgTime.Round(time.Microsecond), w.CompactIndexFor(set).PostingsBytes())
	tw.Flush()
}
