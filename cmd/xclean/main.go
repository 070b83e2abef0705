// Command xclean indexes an XML document and suggests clean
// alternative queries, either one-shot or interactively:
//
//	xclean -doc corpus.xml "hinrich schutze geo-taging"
//	xclean -doc corpus.xml -semantics slca -k 5 "rose architecure fpga"
//	xclean -doc corpus.xml            # interactive REPL on stdin
//
// Indexing dominates startup on large documents; save the index once
// and reopen it per session. A ".seg" (or ".xcm") path saves the
// mmap-able snapshot format, which reopens in milliseconds regardless
// of corpus size; any other extension saves the legacy gob index.
// -index sniffs the format, so both reopen the same way:
//
//	xclean -doc corpus.xml -save-index corpus.seg
//	xclean -index corpus.seg "rose architecure fpga"
//
// For the scatter-gather cluster (see internal/cluster), -shard i/n
// saves the i'th of n entity-range shard slices instead:
//
//	xclean -doc corpus.xml -save-index shard0.idx -shard 0/2
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xclean"
)

// saveAsSnapshot decides whether -save-index writes the mmap-able
// snapfile format: forced by -snapshot-format, or (under "auto")
// chosen by the path's extension.
func saveAsSnapshot(format, path string) bool {
	switch format {
	case "seg":
		return true
	case "gob":
		return false
	case "auto":
		ext := filepath.Ext(path)
		return ext == ".seg" || ext == ".xcm"
	default:
		log.Fatalf("unknown -snapshot-format %q (want auto, seg, or gob)", format)
		return false
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("xclean: ")
	var (
		doc       = flag.String("doc", "", "XML document to index")
		index     = flag.String("index", "", "prebuilt index file (alternative to -doc)")
		saveIndex = flag.String("save-index", "", "write the index to this file and exit")
		snapFmt   = flag.String("snapshot-format", "auto", "format for -save-index: auto (.seg/.xcm paths save the mmap-able snapshot, others gob), seg, or gob")
		noMmap    = flag.Bool("no-mmap", false, "read .seg snapshots into heap memory instead of serving off the mapping")
		shard     = flag.String("shard", "", "with -save-index: write entity-range shard i of n (format i/n) for a cluster shard server")
		k         = flag.Int("k", 10, "suggestions to return")
		eps       = flag.Int("eps", 2, "max edit errors per keyword")
		beta      = flag.Float64("beta", 5, "error penalty β")
		semantics = flag.String("semantics", "type", "entity semantics: type, slca, or elca")
		bigram    = flag.Bool("bigram", false, "enable the bigram coherence extension")
		compact   = flag.Bool("compact", false, "store posting lists block-compressed")
		stream    = flag.Bool("stream", false, "index the document as a stream (constant extra memory)")
		spaces    = flag.Bool("spaces", false, "also explore space insertions/deletions")
		verbose   = flag.Bool("v", false, "print result types and entity counts")
		explain   = flag.Bool("explain", false, "print the per-query trace: stage spans, variant counts, cache and eviction counters")
	)
	flag.Parse()
	if (*doc == "") == (*index == "") {
		log.Print("exactly one of -doc or -index is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := xclean.Options{
		MaxErrors:       *eps,
		ErrorPenalty:    *beta,
		TopK:            *k,
		BigramCoherence: *bigram,
		CompactPostings: *compact,
		NoMmap:          *noMmap,
	}
	switch *semantics {
	case "type":
	case "slca":
		opts.Semantics = xclean.SemanticsSLCA
	case "elca":
		opts.Semantics = xclean.SemanticsELCA
	default:
		log.Fatalf("unknown semantics %q (want type, slca, or elca)", *semantics)
	}

	start := time.Now()
	var (
		eng *xclean.Engine
		err error
	)
	switch {
	case *doc != "" && *stream:
		var f *os.File
		if f, err = os.Open(*doc); err == nil {
			eng, err = xclean.OpenStreaming(f, opts)
			f.Close()
		}
	case *doc != "":
		eng, err = xclean.OpenFile(*doc, opts)
	default:
		eng, err = xclean.OpenIndexFile(*index, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "indexed in %v: %d nodes, %d terms, %d tokens\n",
		time.Since(start).Round(time.Millisecond), st.Nodes, st.DistinctTerms, st.Tokens)

	if *shard != "" && *saveIndex == "" {
		log.Fatal("-shard requires -save-index")
	}
	if *saveIndex != "" && saveAsSnapshot(*snapFmt, *saveIndex) {
		if *shard != "" {
			log.Fatal("-shard slices are gob-only; use -snapshot-format gob or a .idx path")
		}
		if ext := filepath.Ext(*saveIndex); ext != ".seg" && ext != ".xcm" {
			log.Fatalf("-snapshot-format seg needs a .seg or .xcm path, got %q", *saveIndex)
		}
		if err := eng.SaveSnapshot(*saveIndex); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot saved to %s\n", *saveIndex)
		return
	}
	if *saveIndex != "" {
		f, err := os.Create(*saveIndex)
		if err != nil {
			log.Fatal(err)
		}
		if *shard != "" {
			var i, n int
			if _, err := fmt.Sscanf(*shard, "%d/%d", &i, &n); err != nil {
				log.Fatalf("bad -shard %q (want i/n, e.g. 0/2)", *shard)
			}
			err = eng.SaveShardIndex(f, i, n)
		} else {
			err = eng.SaveIndex(f)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if *shard != "" {
			fmt.Fprintf(os.Stderr, "shard %s index saved to %s\n", *shard, *saveIndex)
		} else {
			fmt.Fprintf(os.Stderr, "index saved to %s\n", *saveIndex)
		}
		return
	}

	ask := func(q string) {
		t := time.Now()
		res, err := eng.Query(context.Background(), xclean.Request{Query: q, Spaces: *spaces, Explain: *explain})
		if err != nil {
			log.Fatal(err)
		}
		sugs, ex := res.Suggestions, res.Explain
		elapsed := time.Since(t)
		if len(sugs) == 0 {
			fmt.Printf("no valid suggestions for %q (%v)\n", q, elapsed.Round(time.Microsecond))
		}
		for i, s := range sugs {
			if *verbose || *explain {
				fmt.Printf("%2d. %-40s score=%.3g entities=%d type=%s\n",
					i+1, s.Query, s.Score, s.Entities, s.ResultType)
			} else {
				fmt.Printf("%2d. %s\n", i+1, s.Query)
			}
		}
		if ex != nil {
			printExplain(ex)
		}
		fmt.Fprintf(os.Stderr, "(%v)\n", elapsed.Round(time.Microsecond))
	}

	if flag.NArg() > 0 {
		ask(strings.Join(flag.Args(), " "))
		return
	}
	if *explain {
		fmt.Fprintln(os.Stderr, "(tracing on: each query prints its stage spans)")
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprint(os.Stderr, "query> ")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q != "" {
			ask(q)
		}
		fmt.Fprint(os.Stderr, "query> ")
	}
}

// printExplain renders a per-query trace: the keyword variant table,
// the stage spans (call-level first, then per scan worker), and the
// work counters.
func printExplain(ex *xclean.Explain) {
	fmt.Printf("trace: %q took %v\n", ex.Query, time.Duration(ex.TookNs).Round(time.Microsecond))
	for _, kw := range ex.Keywords {
		fmt.Printf("  keyword %-20s %d variants\n", kw.Token, kw.Variants)
	}
	for _, sp := range ex.Spans {
		who := "call"
		if sp.Worker >= 0 {
			who = fmt.Sprintf("w%d", sp.Worker)
		}
		fmt.Printf("  span %-10s %-5s %v\n", sp.Stage, who,
			time.Duration(sp.DurationNs).Round(time.Microsecond))
	}
	st := ex.Stats
	fmt.Printf("  postings=%d subtrees=%d candidates=%d typeCacheHits=%d typeCacheMisses=%d evictions=%d workerSubtrees=%v\n",
		st.PostingsRead, st.Subtrees, st.CandidatesSeen,
		st.TypeCacheHits, st.TypeComputations, st.Evictions, st.WorkerSubtrees)
}
