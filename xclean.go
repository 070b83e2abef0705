// Package xclean provides valid spelling suggestions for XML keyword
// queries, implementing the XClean framework of Lu, Wang, Li, and Liu
// ("XClean: Providing Valid Spelling Suggestions for XML Keyword
// Queries", ICDE 2011).
//
// Given an XML document and a possibly-misspelt keyword query, an
// Engine returns the top-k alternative queries ranked by the
// probability P(C|Q,T) that the user intended candidate C — the
// product of an exponential edit-error model and a query generation
// model: a Dirichlet-smoothed unigram language model evaluated over
// the document's entities (subtrees of the query's inferred result
// type, or per-query SLCA subtrees). Every suggestion is guaranteed to
// have at least one matching entity, i.e. a non-empty query result.
//
// Basic use:
//
//	f, _ := os.Open("corpus.xml")
//	eng, err := xclean.Open(f, xclean.Options{})
//	if err != nil { ... }
//	for _, s := range eng.Suggest("hinrich schutze geo-taging") {
//	    fmt.Println(s.Query, s.Score)
//	}
package xclean

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"xclean/internal/core"
	"xclean/internal/invindex"
	"xclean/internal/obs"
	"xclean/internal/segment"
	"xclean/internal/slca"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// Semantics selects how the XML tree is decomposed into entities.
type Semantics int

const (
	// SemanticsResultType infers the most probable result node type
	// per candidate query and treats nodes of that type as entities
	// (the paper's primary semantics, from XReal).
	SemanticsResultType Semantics = iota
	// SemanticsSLCA uses each candidate's Smallest Lowest Common
	// Ancestor nodes as its entities (Section VI-B).
	SemanticsSLCA
	// SemanticsELCA uses each candidate's Exclusive Lowest Common
	// Ancestor nodes (the XRank semantics) as its entities — a superset
	// of the SLCA set that also keeps ancestors with independent
	// keyword evidence. An extension beyond the paper, demonstrating
	// the framework's claim of accommodating other query semantics.
	SemanticsELCA
)

// Prior selects the entity prior P(r_j|T) of Eq. (8). The paper uses
// a uniform prior and notes the generalization to non-uniform priors;
// these implement it.
type Prior int

const (
	// PriorUniform is the paper's default: every entity equally likely.
	PriorUniform Prior = iota
	// PriorLength weights entities by their virtual-document length.
	PriorLength
	// PriorCustom weights entities by Options.EntityWeights (e.g.
	// click counts from a query log); unlisted entities weigh 1.
	PriorCustom
)

// Options tunes an Engine. The zero value reproduces the paper's
// defaults: ε=1, β=5, μ=2000, r=0.8, d=2, γ=1000, k=10.
type Options struct {
	// MaxErrors is ε, the maximum edit errors per keyword (0 = 1).
	MaxErrors int
	// ErrorPenalty is β in P(q|w) ∝ exp(-β·ed). 0 means the default 5;
	// negative values mean a literal 0 (no penalty).
	ErrorPenalty float64
	// Smoothing is the Dirichlet μ of the language model (0 = 2000).
	Smoothing float64
	// DepthReduction is the r of the result-type utility (0 = 0.8).
	DepthReduction float64
	// MinDepth is the minimal entity depth d (0 = 2). Entities may not
	// be shallower; in particular the document root never qualifies,
	// which prevents suggesting keyword combinations that are
	// connected only through the root.
	MinDepth int
	// Accumulators is γ, the cap on in-memory candidate score
	// accumulators (0 = 1000; negative = unlimited).
	Accumulators int
	// TopK is the number of suggestions returned (0 = 10).
	TopK int
	// Semantics selects the entity decomposition.
	Semantics Semantics
	// MaxSpaceChanges is τ of the space-error search, Request.Spaces
	// (0 = 1).
	MaxSpaceChanges int
	// MinTokenLength is the shortest indexed token (0 = 3, the paper's
	// setting; shorter tokens and stop words are not indexed).
	MinTokenLength int
	// PhoneticMatching additionally admits Soundex-equivalent
	// vocabulary words as keyword variants (the cognitive-error
	// extension of Section VI-A).
	PhoneticMatching bool
	// CompactPostings stores posting lists block-compressed in memory
	// (delta-encoded Dewey codes). Suggestions are identical; the index
	// is several-fold smaller and queries stream-decode the lists.
	CompactPostings bool
	// Synonyms maps keywords to alternative terms (thesaurus /
	// ontology); in-vocabulary synonyms join the variant set.
	Synonyms map[string][]string
	// BigramCoherence multiplies every candidate's score by the
	// interpolated bigram probability of its keyword sequence — the
	// language-model extension beyond the paper's unigram Eq. (9). It
	// penalizes candidates that combine individually-frequent but
	// never-adjacent words.
	BigramCoherence bool
	// BigramLambda is the interpolation weight λ of the bigram model
	// (0 = 0.7).
	BigramLambda float64
	// EntityPrior selects P(r_j|T); the zero value is the paper's
	// uniform prior.
	EntityPrior Prior
	// EntityWeights maps entity root Dewey codes in dot form (such as
	// "1.17.2") to unnormalized prior weights, consulted under
	// PriorCustom. Malformed codes are ignored.
	EntityWeights map[string]float64
	// StoreText keeps a copy of the document text in the index so that
	// Preview can render the witness entity of each suggestion.
	StoreText bool
	// NoMmap makes OpenSnapshot read snapshot files into heap buffers
	// instead of memory-mapping them — the portability/diagnostics
	// escape hatch. Scores are identical; open cost and resident set
	// grow with the file.
	NoMmap bool
	// TailLimit is the number of documents the segmented engine's
	// mutable tail buffers before sealing it into an immutable segment
	// (0 = 64). Consulted only once AddDocument or RemoveDocument has
	// switched the engine to its segmented form.
	TailLimit int
	// CompactInterval, when positive, runs a background segment
	// compaction attempt this often on a segmented engine, in addition
	// to the write-triggered compactor. Zero leaves only write-triggered
	// compaction.
	CompactInterval time.Duration
	// Workers bounds the parallelism of one suggestion call: the
	// anchor-subtree scan of Algorithm 1 is sharded across this many
	// goroutines (and the space-error search runs up to this many shapes
	// concurrently). 0 uses GOMAXPROCS; 1 forces the exact sequential
	// execution. Results are identical either way, up to floating-point
	// summation order.
	Workers int
}

func (o Options) coreConfig() core.Config {
	var custom map[string]float64
	if len(o.EntityWeights) > 0 {
		custom = make(map[string]float64, len(o.EntityWeights))
		for code, w := range o.EntityWeights {
			d, err := xmltree.ParseDewey(code)
			if err != nil {
				continue
			}
			custom[d.Key()] = w
		}
	}
	return core.Config{
		Prior:           core.Prior(o.EntityPrior),
		CustomPrior:     custom,
		Bigram:          o.BigramCoherence,
		BigramLambda:    o.BigramLambda,
		Epsilon:         o.MaxErrors,
		Beta:            o.ErrorPenalty,
		Mu:              o.Smoothing,
		R:               o.DepthReduction,
		MinDepth:        o.MinDepth,
		Gamma:           o.Accumulators,
		K:               o.TopK,
		MaxSpaceChanges: o.MaxSpaceChanges,
		Phonetic:        o.PhoneticMatching,
		Synonyms:        o.Synonyms,
		Workers:         o.Workers,
		Tokenizer:       o.tokenizerOptions(),
	}
}

func (o Options) tokenizerOptions() tokenizer.Options {
	return tokenizer.Options{MinLength: o.MinTokenLength}
}

// Suggestion is one alternative query.
type Suggestion struct {
	// Query is the suggested query string.
	Query string
	// Words are its keywords.
	Words []string
	// Score is proportional to P(C|Q,T); comparable within one call.
	Score float64
	// ResultType is the inferred result node type as a label path such
	// as "/dblp/article" (empty under SLCA semantics).
	ResultType string
	// Entities is the number of entities matching every keyword; it is
	// always ≥ 1 — suggested queries are guaranteed non-empty results.
	Entities int
	// EditDistance is the total edit distance from the input query.
	EditDistance int
	// Witness is the Dewey code (dot form, e.g. "1.17") of the first
	// entity that matched every keyword — the concrete exhibit of the
	// non-empty-result guarantee. Pass the suggestion to Preview to
	// render its text (requires Options.StoreText).
	Witness string
}

// IndexStats summarizes the indexed document.
type IndexStats struct {
	Nodes         int
	MaxDepth      int
	Tokens        int64
	DistinctTerms int
	LabelPaths    int
}

// Engine answers suggestion queries over one indexed XML document.
//
// An Engine starts monolithic: one index, one core engine. The first
// AddDocument or RemoveDocument switches it to the segmented form — a
// stack of immutable sealed segments plus a mutable tail
// (internal/segment) — after which a single writer may keep mutating
// the corpus while any number of readers call Query concurrently.
// Whenever the stack is flat (one segment, no pending tombstones —
// including after a flush), queries transparently take the monolithic
// fast path.
type Engine struct {
	opts Options
	// src is the read surface queries scan against: the heap index
	// (monolithic engines) or an mmap'd snapshot reader
	// (snapshot-backed engines; see OpenSnapshot).
	src invindex.Source
	// ix is the heap form of the corpus — src itself when the engine
	// was built from a heap index, else materialized lazily by
	// heapIndex on the first operation that needs mutable structures.
	ix    *invindex.Index
	matMu sync.Mutex
	core  *core.Engine
	slca  *slca.Engine
	// seg is the segmented store, non-nil once live writes started
	// (result-type semantics only; SLCA engines keep the legacy
	// stop-the-world mutation path). Atomic so the first write can
	// publish the store while readers are mid-query.
	seg atomic.Pointer[segment.Store]
}

// route picks the serving path for one core-semantics call: a plain
// engine (the monolithic engine, or the stack's single segment when it
// is flat) or the segmented store.
func (e *Engine) route() (*core.Engine, *segment.Store) {
	st := e.seg.Load()
	if st == nil {
		return e.core, nil
	}
	if fe := st.FastEngine(); fe != nil {
		return fe, nil
	}
	return nil, st
}

// paths is the table interpreting result-type IDs: the stack's newest
// table once segmented, the index's own otherwise.
func (e *Engine) paths() *xmltree.PathTable {
	if st := e.seg.Load(); st != nil {
		return st.Paths()
	}
	return e.src.PathTable()
}

// ensureStore lazily wraps the monolithic engine as the base segment
// of a segmented store on the first live write. Only the single
// permitted writer calls it, so the nil check needs no CAS.
func (e *Engine) ensureStore() (*segment.Store, error) {
	if st := e.seg.Load(); st != nil {
		return st, nil
	}
	// The store needs the heap form of the corpus as its base segment;
	// a snapshot-backed engine materializes here, on its first write.
	ix, err := e.heapIndex()
	if err != nil {
		return nil, err
	}
	st, err := segment.NewStore(ix, e.core, segment.Config{
		Core:            e.opts.coreConfig(),
		TailLimit:       e.opts.TailLimit,
		CompactInterval: e.opts.CompactInterval,
		CompactPostings: e.opts.CompactPostings,
		StoreText:       e.opts.StoreText || ix.HasStoredText(),
		Sink:            e.core.Sink(),
	})
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	e.seg.Store(st)
	return st, nil
}

// Open parses one XML document from r and builds a suggestion engine.
func Open(r io.Reader, opts Options) (*Engine, error) {
	tree, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	return FromTree(tree, opts), nil
}

// OpenStreaming indexes one XML document directly from its byte
// stream without materializing the parsed tree, so peak memory is the
// index plus one root-to-leaf stack. Use it for documents much larger
// than RAM headroom (the paper's INEX collection is 5.8 GB); results
// are identical to Open.
func OpenStreaming(r io.Reader, opts Options) (*Engine, error) {
	var (
		ix  *invindex.Index
		err error
	)
	if opts.StoreText {
		ix, err = invindex.BuildStoredFromReader(r, opts.tokenizerOptions())
	} else {
		ix, err = invindex.BuildFromReader(r, opts.tokenizerOptions())
	}
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	if opts.CompactPostings {
		ix.Compact()
	}
	return FromIndex(ix, opts), nil
}

// OpenFile is Open over a file path.
func OpenFile(path string, opts Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	defer f.Close()
	return Open(f, opts)
}

// OpenCollection parses several XML documents and joins them under a
// virtual root, as the paper does for the INEX collection.
func OpenCollection(rootLabel string, opts Options, readers ...io.Reader) (*Engine, error) {
	tree, err := xmltree.ParseCollection(rootLabel, readers...)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	return FromTree(tree, opts), nil
}

// FromTree builds an engine over an already-parsed tree. It is the
// entry point used by the synthetic-corpus generators.
func FromTree(tree *xmltree.Tree, opts Options) *Engine {
	var ix *invindex.Index
	if opts.StoreText {
		ix = invindex.BuildStored(tree, opts.tokenizerOptions())
	} else {
		ix = invindex.Build(tree, opts.tokenizerOptions())
	}
	if opts.CompactPostings {
		ix.Compact()
	}
	return FromIndex(ix, opts)
}

// OpenIndex loads an index previously written by SaveIndex and builds
// an engine over it — much faster than re-indexing the document. The
// stored tokenization settings override Options.MinTokenLength.
func OpenIndex(r io.Reader, opts Options) (*Engine, error) {
	ix, err := invindex.Load(r)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	opts.MinTokenLength = ix.TokenizerOptions().MinLength
	return FromIndex(ix, opts), nil
}

// OpenIndexFile opens a persisted index of any supported format,
// sniffing it from the leading magic bytes: the gob format written by
// SaveIndex, a snapfile segment, or a snapshot manifest (both written
// by SaveSnapshot). Snapshot formats open via OpenSnapshot — mmap'd,
// in milliseconds; the gob format is decoded into the heap as before.
func OpenIndexFile(path string, opts Options) (*Engine, error) {
	prefix, err := filePrefix(path, 12)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	switch {
	case len(prefix) >= 8 && string(prefix[:8]) == "XCSEG001":
		return OpenSnapshot(path, opts)
	case len(prefix) >= 12 && string(prefix) == "XCMANIFEST1\n":
		return OpenSnapshot(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	defer f.Close()
	return OpenIndex(f, opts)
}

// SaveIndex writes the engine's index so that OpenIndex can restore it
// without reparsing the document. On a segmented engine the stack is
// first flattened (tail sealed, tombstones purged, segments merged) so
// the snapshot is a single self-contained index.
func (e *Engine) SaveIndex(w io.Writer) error {
	ix, err := e.currentIndex()
	if err != nil {
		return err
	}
	if err := ix.Save(w); err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	return nil
}

// currentIndex is the single-index form of the corpus: the engine's
// own index while monolithic, the flattened stack once segmented.
func (e *Engine) currentIndex() (*invindex.Index, error) {
	st := e.seg.Load()
	if st == nil {
		return e.heapIndex()
	}
	ix, err := st.Flatten(context.Background())
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	return ix, nil
}

// PartialSet is one shard's un-normalized answer for one query: the
// per-keyword variant hits, per-candidate partial entity sums, and
// local per-type normalizers that a cluster coordinator folds into the
// global top-k (see internal/cluster). It is index-keyed: candidates
// name their words and result type by index into the set's variant
// lists and path dictionary, and carry the witness as a fixed-width
// Dewey key. It is the payload of the binary /shard/suggest wire.
type PartialSet = core.PartialSet

// SuggestPartials runs the scan half of a suggestion call and returns
// the shard-local partials instead of ranked suggestions — the shard
// side of the cluster scatter-gather protocol. It requires the
// result-type semantics (the default).
func (e *Engine) SuggestPartials(query string) (PartialSet, error) {
	ps, _, err := e.SuggestPartialsContext(context.Background(), query, false)
	return ps, err
}

// SuggestPartialsContext is SuggestPartials under a context: the scan
// polls ctx cooperatively and a cancelled or expired context makes the
// call return ctx.Err(), so a shard stops scanning as soon as the
// coordinator's forwarded deadline dies. explain additionally returns
// the stage spans of the scan (obs.Span per stage, per worker) — the
// shard half of distributed tracing: a traced coordinator request asks
// for them so every shard's per-stage timing rides back in the
// shard response and stitches into the cluster-wide trace.
func (e *Engine) SuggestPartialsContext(ctx context.Context, query string, explain bool) (PartialSet, []obs.Span, error) {
	if e.core == nil {
		return PartialSet{}, nil, fmt.Errorf("xclean: shard partials require the result-type semantics")
	}
	ce, st := e.route()
	if st != nil {
		return PartialSet{}, nil, fmt.Errorf("xclean: shard partials unavailable while the segment stack has pending writes; flush first")
	}
	ps, _, spans, err := ce.SuggestPartialsContext(ctx, query, explain)
	return ps, spans, err
}

// ShardEngine returns an engine over shard `shard` of `n`: the slice
// of the corpus holding the shard'th contiguous range of top-level
// entity roots, with collection-global statistics (vocabulary, type
// lists, bigrams) shared so that per-shard partial scores merge into
// exactly the standalone scores. The slice shares the receiver's
// index tables; neither engine may index further documents afterwards.
func (e *Engine) ShardEngine(shard, n int) (*Engine, error) {
	ix, err := e.currentIndex()
	if err != nil {
		return nil, err
	}
	sl, err := ix.ShardEntities(shard, n)
	if err != nil {
		return nil, fmt.Errorf("xclean: %w", err)
	}
	return FromIndex(sl, e.opts), nil
}

// SaveShardIndex writes shard `shard` of `n` in the SaveIndex format,
// loadable with OpenIndex on a shard server.
func (e *Engine) SaveShardIndex(w io.Writer, shard, n int) error {
	ix, err := e.currentIndex()
	if err != nil {
		return err
	}
	sl, err := ix.ShardEntities(shard, n)
	if err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	if err := sl.Save(w); err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	return nil
}

// FromIndex builds an engine over a prebuilt index (shared across
// engines with different scoring options).
func FromIndex(ix *invindex.Index, opts Options) *Engine {
	e := &Engine{opts: opts, src: ix, ix: ix}
	switch opts.Semantics {
	case SemanticsSLCA:
		e.slca = slca.NewEngine(ix, opts.coreConfig())
	case SemanticsELCA:
		e.slca = slca.NewELCAEngine(ix, opts.coreConfig())
	default:
		e.core = core.NewEngine(ix, opts.coreConfig())
	}
	return e
}

// Request is one suggestion call: the raw query, plus Spaces to
// explore space insertions and deletions (e.g. "power point" →
// "powerpoint", Section VI-A; ignored under SLCA/ELCA semantics) and
// Explain to return the per-query trace (stage spans, variant counts,
// work counters, scored candidates) at the cost of stage timing.
type Request = core.Request

// Response is the answer to one Request.
type Response struct {
	// Suggestions are the top-k alternative queries, best first. Nil
	// means no candidate query has any connected, non-empty result.
	Suggestions []Suggestion
	// Explain is the trace of the call, non-nil only when
	// Request.Explain was set and the call completed.
	Explain *Explain
}

// Query answers one request. It is the engine's single query path: an
// SLCA/ELCA engine, the monolithic engine (or the single segment of a
// flat stack), or the segmented store, whichever currently serves the
// corpus. The anchor-subtree scan polls ctx cooperatively (every few
// dozen subtrees per worker), so a cancelled or expired context stops
// an in-progress call promptly and returns ctx.Err() with no
// suggestions and no trace. A context that can never be cancelled
// (context.Background()) costs nothing extra.
func (e *Engine) Query(ctx context.Context, req Request) (Response, error) {
	if e.slca != nil {
		res, err := e.slca.Query(ctx, req)
		return Response{Suggestions: e.convert(res.Suggestions), Explain: res.Explain}, err
	}
	ce, st := e.route()
	if st != nil {
		out, _, ex, err := st.Suggest(ctx, req)
		return Response{Suggestions: ConvertMerged(out), Explain: ex}, err
	}
	res, err := ce.Query(ctx, req)
	return Response{Suggestions: e.convert(res.Suggestions), Explain: res.Explain}, err
}

// Suggest returns the top-k alternative queries for query, best first.
// A nil result means no candidate query has any connected, non-empty
// result.
func (e *Engine) Suggest(query string) []Suggestion {
	res, _ := e.Query(context.Background(), Request{Query: query})
	return res.Suggestions
}

// SuggestWithSpaces additionally explores insertions and deletions of
// spaces (Request.Spaces). Under SLCA/ELCA semantics it is Suggest.
func (e *Engine) SuggestWithSpaces(query string) []Suggestion {
	res, _ := e.Query(context.Background(), Request{Query: query, Spaces: true})
	return res.Suggestions
}

// Observer is the metrics sink of an Engine: attach one with
// SetObserver and every suggestion call feeds its latency, per-stage
// timing, and work counters into it. See the obs package for the
// snapshot and Prometheus exposition APIs.
type Observer = obs.Sink

// NewObserver builds an empty metrics sink.
func NewObserver() *Observer { return obs.NewSink() }

// SetObserver attaches a metrics sink (nil detaches it — the default,
// which keeps the suggestion path free of instrumentation cost). Set
// it before serving queries; it must not race with in-flight calls.
func (e *Engine) SetObserver(s *Observer) {
	if e.slca != nil {
		e.slca.SetSink(s)
		return
	}
	e.core.SetSink(s)
	if st := e.seg.Load(); st != nil {
		st.SetSink(s)
	}
}

// Explain is the per-query trace returned in Response.Explain:
// wall-clock stage spans (with per-worker attribution under parallel
// scans), per-keyword variant counts, work counters, and the scored
// candidate table.
type Explain = core.Explain

// ExplainKeyword is one traced keyword and its variant-family size.
type ExplainKeyword = core.ExplainKeyword

// ExplainCandidate is one row of a trace's scored candidate table.
type ExplainCandidate = core.ExplainCandidate

// AddDocument parses one XML document from r and adds it to the
// corpus as a new direct child of the indexed root. Under the
// result-type semantics the first write switches the engine to its
// segmented form: the document lands in an in-memory mutable tail
// (sealed into an immutable segment every Options.TailLimit
// documents), the existing index is never mutated, and a background
// compactor keeps the segment stack shallow. Scores are identical to
// re-indexing the enlarged corpus from scratch.
//
// Concurrency: AddDocument and RemoveDocument form a single-writer
// pair — they must not race with each other — but both are safe to
// call concurrently with Query, which keeps serving a consistent
// snapshot throughout. Engines with CompactPostings accept writes too
// (the compacted base segment stays immutable; new documents live in
// raw-postings segments until compaction).
//
// SLCA/ELCA engines keep the legacy in-place mutation path, which is
// not safe to call concurrently with Suggest and rejects compacted
// indexes.
func (e *Engine) AddDocument(r io.Reader) error {
	tree, err := xmltree.Parse(r)
	if err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	if e.slca != nil {
		if err := e.ix.AddDocument(tree); err != nil {
			return fmt.Errorf("xclean: %w", err)
		}
		// Extend the shared variant index with the document's tokens
		// (known words are ignored) rather than rebuilding it over the
		// vocabulary.
		tokOpts := e.opts.tokenizerOptions()
		var words []string
		tree.Walk(func(n *xmltree.Node) bool {
			if n.Text != "" {
				words = append(words, tokOpts.Tokenize(n.Text)...)
			}
			return true
		})
		e.slca = e.slca.Refresh(words)
		return nil
	}
	st, err := e.ensureStore()
	if err != nil {
		return err
	}
	if err := st.AddDocument(tree); err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	return nil
}

// RemoveDocument removes the document rooted at the given Dewey code
// (dot form, e.g. "1.17" — a direct child of the root, as reported by
// Suggestion.Witness truncated to depth 2 or by the document's position
// in the collection) from the corpus, as if it had never been indexed.
// Requires Options.StoreText. Under the result-type semantics the
// engine switches to its segmented form on first write: removal of a
// sealed document records a tombstone that queries filter immediately
// and compaction purges later; removal of a still-buffered tail
// document drops it outright. The same single-writer /
// concurrent-reader contract as AddDocument applies.
//
// SLCA/ELCA engines keep the legacy in-place path (see
// invindex.RemoveDocument), which must not race with Suggest.
func (e *Engine) RemoveDocument(code string) error {
	d, err := xmltree.ParseDewey(code)
	if err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	if e.slca != nil {
		if err := e.ix.RemoveDocument(d); err != nil {
			return fmt.Errorf("xclean: %w", err)
		}
		e.slca = e.slca.Refresh(nil)
		return nil
	}
	st, err := e.ensureStore()
	if err != nil {
		return err
	}
	if err := st.RemoveDocument(d); err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	return nil
}

// CompactNow synchronously runs at most one segment compaction step
// (a tombstone purge or a small-segment merge) and reports whether any
// work was done. A no-op on engines that never saw a live write.
func (e *Engine) CompactNow(ctx context.Context) (bool, error) {
	st := e.seg.Load()
	if st == nil {
		return false, nil
	}
	did, err := st.CompactOnce(ctx)
	if err != nil {
		return did, fmt.Errorf("xclean: %w", err)
	}
	return did, nil
}

// FlushSegments merges the whole segment stack — tail sealed,
// tombstones purged — into a single segment, after which queries take
// the monolithic fast path again. A no-op on engines that never saw a
// live write.
func (e *Engine) FlushSegments(ctx context.Context) error {
	st := e.seg.Load()
	if st == nil {
		return nil
	}
	if _, err := st.Flatten(ctx); err != nil {
		return fmt.Errorf("xclean: %w", err)
	}
	return nil
}

// SegmentStats describes a segmented engine's stack shape (all zero
// while the engine is still monolithic).
type SegmentStats = segment.SegStats

// SegmentStats reports the current segment stack.
func (e *Engine) SegmentStats() SegmentStats {
	st := e.seg.Load()
	if st == nil {
		return SegmentStats{}
	}
	return st.SegmentStats()
}

// Close stops the segmented engine's background compaction ticker (if
// any). Queries remain serveable; Close is idempotent and a no-op on
// monolithic engines.
func (e *Engine) Close() {
	if st := e.seg.Load(); st != nil {
		st.Close()
	}
}

// Preview renders up to maxLen runes of the suggestion's witness
// entity — a sample of the query result the suggestion guarantees. It
// returns "" when the engine was built without Options.StoreText or
// the suggestion carries no witness.
func (e *Engine) Preview(s Suggestion, maxLen int) string {
	if s.Witness == "" {
		return ""
	}
	d, err := xmltree.ParseDewey(s.Witness)
	if err != nil {
		return ""
	}
	if st := e.seg.Load(); st != nil {
		return st.SubtreeText(d, maxLen)
	}
	return e.src.SubtreeText(d, maxLen)
}

// Stats describes the indexed document. On a segmented engine the
// counts cover the live stack: tombstoned content is excluded and
// structures the segments share (the root node) are deduplicated.
func (e *Engine) Stats() IndexStats {
	if st := e.seg.Load(); st != nil {
		cs := st.Stats()
		return IndexStats{
			Nodes:         cs.Nodes,
			MaxDepth:      cs.MaxDepth,
			Tokens:        cs.Tokens,
			DistinctTerms: cs.Vocab,
			LabelPaths:    cs.LabelPaths,
		}
	}
	return IndexStats{
		Nodes:         e.src.NodeCount(),
		MaxDepth:      e.src.MaxDepth(),
		Tokens:        e.src.TotalTokens(),
		DistinctTerms: e.src.Vocabulary().Size(),
		LabelPaths:    e.src.PathTable().Len(),
	}
}

func (e *Engine) convert(in []core.Suggestion) []Suggestion {
	if len(in) == 0 {
		return nil
	}
	paths := e.paths()
	out := make([]Suggestion, len(in))
	for i, s := range in {
		rt := ""
		if s.ResultType != xmltree.InvalidPath {
			rt = paths.String(s.ResultType)
		}
		out[i] = Suggestion{
			Query:        s.Query(),
			Words:        s.Words,
			Score:        s.Score,
			ResultType:   rt,
			Entities:     s.Entities,
			EditDistance: s.EditDistance,
			Witness:      s.Witness.String(),
		}
	}
	return out
}

// ConvertMerged maps merged suggestions — the segmented path's, or a
// cluster coordinator's — which already carry label-path and dot-form
// strings, to the public type. An empty input maps to nil.
func ConvertMerged(in []core.MergedSuggestion) []Suggestion {
	if len(in) == 0 {
		return nil
	}
	out := make([]Suggestion, len(in))
	for i, s := range in {
		out[i] = Suggestion{
			Query:        s.Query(),
			Words:        s.Words,
			Score:        s.Score,
			ResultType:   s.ResultType,
			Entities:     s.Entities,
			EditDistance: s.EditDistance,
			Witness:      s.Witness,
		}
	}
	return out
}
