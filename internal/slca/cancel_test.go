package slca

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"xclean/internal/core"
	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
)

// A pre-cancelled context stops the SLCA anchor scan at the first
// cancellation poll (iteration 0) and surfaces the context's error.
func TestSLCACancelledContext(t *testing.T) {
	tr := slcaTree()
	ix := invindex.Build(tr, tokenizer.Options{})
	e := NewEngine(ix, core.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.Query(ctx, core.Request{Query: "rose fpga architecure", Explain: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res.Suggestions != nil || res.Explain != nil {
		t.Errorf("cancelled call returned suggestions %v, trace %v", res.Suggestions, res.Explain)
	}
}

// With a live context Query is the same computation as Suggest.
func TestSLCAContextMatchesPlain(t *testing.T) {
	tr := slcaTree()
	ix := invindex.Build(tr, tokenizer.Options{})
	e := NewEngine(ix, core.Config{})
	want := e.Suggest("rose fpga architecure")
	got, err := e.Query(context.Background(), core.Request{Query: "rose fpga architecure"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Suggestions, want) {
		t.Errorf("Query diverges:\n got=%v\nwant=%v", got.Suggestions, want)
	}
}
