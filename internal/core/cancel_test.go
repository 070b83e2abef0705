package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

// cancelCorpus builds a corpus big enough that a full scan visits many
// anchor subtrees — enough to straddle several cancellation check
// intervals.
func cancelCorpus() *xmltree.Tree {
	t := xmltree.NewTree("db")
	for i := 0; i < 400; i++ {
		rec := t.AddChild(t.Root, "record", "")
		t.AddChild(rec, "title", fmt.Sprintf("tree query processing volume %d", i))
		t.AddChild(rec, "body", "xml keyword search with spelling cleanup")
	}
	return t
}

func cancelEngine(workers int) *Engine {
	ix := invindex.Build(cancelCorpus(), tokenizer.Options{})
	return NewEngine(ix, Config{Epsilon: 2, Workers: workers})
}

// A context cancelled before the call must stop the scan at the very
// first cancellation poll: zero subtrees processed (the poll fires at
// iteration 0, well within one CancelCheckEvery interval) and the
// context's error surfaced.
func TestCancelledContextStopsScan(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := cancelEngine(workers)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := e.Query(ctx, Request{Query: "tree qurey"})
			sugs, st := res.Suggestions, res.Stats
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err=%v, want context.Canceled", err)
			}
			if sugs != nil {
				t.Errorf("cancelled call returned suggestions: %v", sugs)
			}
			if st.Subtrees != 0 {
				t.Errorf("cancelled before the call but %d subtrees scanned (bound: 0)", st.Subtrees)
			}
		})
	}
}

// An expired deadline surfaces as context.DeadlineExceeded, not as a
// generic cancellation.
func TestDeadlineExceededPropagates(t *testing.T) {
	e := cancelEngine(1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.Query(ctx, Request{Query: "tree qurey"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
}

// The space-error search runs shapes through the same scan: a
// cancelled context poisons the whole call rather than silently
// merging a truncated shape.
func TestCancelledContextSpaces(t *testing.T) {
	e := cancelEngine(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Query(ctx, Request{Query: "tree qurey", Spaces: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res.Suggestions != nil {
		t.Errorf("cancelled spaces call returned suggestions: %v", res.Suggestions)
	}
}

// The shard-partial scan honors the forwarded deadline too.
func TestCancelledContextPartials(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := cancelEngine(workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		set, st, _, err := e.SuggestPartialsContext(ctx, "tree qurey", false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if len(set.Candidates) != 0 {
			t.Errorf("workers=%d: cancelled partial scan returned %d candidates", workers, len(set.Candidates))
		}
		if st.Subtrees != 0 {
			t.Errorf("workers=%d: %d subtrees scanned after pre-cancel", workers, st.Subtrees)
		}
	}
}

// Query under a live context must be the exact same computation as the
// context-free wrappers, and tracing must not change the answer.
func TestContextVariantsMatchPlain(t *testing.T) {
	e := cancelEngine(2)
	q := "tree qurey"
	want := e.Suggest(q)
	got, err := e.Query(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Suggestions, want) {
		t.Errorf("Query diverges from Suggest:\n got=%v\nwant=%v", got.Suggestions, want)
	}

	wantSp := e.SuggestWithSpaces("tree qu ery")
	gotSp, err := e.Query(context.Background(), Request{Query: "tree qu ery", Spaces: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSp.Suggestions, wantSp) {
		t.Errorf("Query{Spaces} diverges:\n got=%v\nwant=%v", gotSp.Suggestions, wantSp)
	}

	wantPs, _, _, err := e.SuggestPartialsContext(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	gotPs, _, spans, err := e.SuggestPartialsContext(context.Background(), q, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPs, wantPs) {
		t.Errorf("explained partials diverge from plain partials")
	}
	if len(spans) == 0 {
		t.Errorf("explained partials carry no stage spans")
	}
}

// Mid-scan cancellation under -race: many goroutines scanning while
// their contexts are cancelled at random points. Whatever the timing,
// a call either completes with the full answer or fails with the
// context's error and no suggestions — never a silently truncated
// ranking.
func TestMidScanCancellationRace(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := cancelEngine(workers)
			want := e.Suggest("tree qurey")
			if len(want) == 0 {
				t.Fatal("corpus finds nothing for the probe query")
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						ctx, cancel := context.WithCancel(context.Background())
						go func() {
							// Vary the cancel point from "before the scan
							// starts" to "after it finished".
							time.Sleep(time.Duration(i%5) * 30 * time.Microsecond)
							cancel()
						}()
						res, err := e.Query(ctx, Request{Query: "tree qurey"})
						if err != nil {
							if !errors.Is(err, context.Canceled) {
								t.Errorf("unexpected error: %v", err)
							}
							if res.Suggestions != nil {
								t.Error("error with non-nil suggestions")
							}
						} else if !reflect.DeepEqual(res.Suggestions, want) {
							t.Error("uncancelled call diverged from baseline")
						}
						cancel()
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
