package cluster_test

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"xclean/internal/cluster"
	"xclean/internal/core"
	"xclean/internal/obs"
)

// fixtureBodies returns real shard wire bodies: the cluster fixture's
// queries as requests, and each shard's responses to them, untraced
// and traced.
func fixtureBodies(tb testing.TB) (reqs, resps [][]byte) {
	tb.Helper()
	f := newFixture(tb, 2, cluster.Config{})
	batches := [][]string{f.queries[:1], f.queries}
	for _, qs := range batches {
		reqs = append(reqs, cluster.AppendBatchRequest(nil, &cluster.BatchRequest{
			Corpus: "dblp", RequestID: "req-1", Queries: qs,
		}))
	}
	tp := obs.Traceparent(obs.NewTraceID(), obs.NewSpanID(), true)
	for _, srv := range f.servers {
		for _, req := range reqs {
			for _, traceparent := range []string{"", tp} {
				hr, err := http.NewRequest(http.MethodPost, srv.URL+"/shard/suggest", bytes.NewReader(req))
				if err != nil {
					tb.Fatal(err)
				}
				if traceparent != "" {
					hr.Header.Set("Traceparent", traceparent)
				}
				resp, err := http.DefaultClient.Do(hr)
				if err != nil {
					tb.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					tb.Fatalf("shard answered %d (%v): %s", resp.StatusCode, err, body)
				}
				resps = append(resps, body)
			}
		}
	}
	return reqs, resps
}

// Encoding is the inverse of decoding, for the fixture's real bodies
// byte for byte and for their decoded values.
func TestWireRoundTrip(t *testing.T) {
	reqs, resps := fixtureBodies(t)
	for _, body := range reqs {
		req, err := cluster.DecodeBatchRequest(string(body))
		if err != nil {
			t.Fatal(err)
		}
		if again := cluster.AppendBatchRequest(nil, &req); !bytes.Equal(again, body) {
			t.Fatalf("request re-encodes differently:\n%x\n%x", again, body)
		}
	}
	traced, candidates := 0, 0
	for _, body := range resps {
		br, err := cluster.DecodeBatchResponse(string(body))
		if err != nil {
			t.Fatal(err)
		}
		if br.TraceSpan != nil {
			traced++
			if br.TraceSpan.Name != "shard.suggest" || len(br.TraceSpan.Children) == 0 {
				t.Fatalf("trace span = %+v, want a shard.suggest tree", br.TraceSpan)
			}
		}
		for _, e := range br.Results {
			candidates += len(e.Candidates)
		}
		again, err := cluster.AppendBatchResponse(nil, br)
		if err != nil {
			t.Fatal(err)
		}
		br2, err := cluster.DecodeBatchResponse(string(again))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(br, br2) {
			t.Fatalf("response does not survive a round trip:\n%+v\n%+v", br, br2)
		}
	}
	if traced == 0 || candidates == 0 {
		t.Fatalf("fixture bodies carry %d traces and %d candidates; the round trip checked too little", traced, candidates)
	}
}

// Truncating a valid body anywhere, or appending to it, is an error —
// never a panic or a silently shortened answer.
func TestWireRejectsTruncation(t *testing.T) {
	reqs, resps := fixtureBodies(t)
	for _, body := range reqs[:1] {
		for n := 0; n < len(body); n++ {
			if _, err := cluster.DecodeBatchRequest(string(body[:n])); err == nil {
				t.Fatalf("request cut to %d of %d bytes decoded", n, len(body))
			}
		}
		if _, err := cluster.DecodeBatchRequest(string(body) + "x"); err == nil {
			t.Fatal("request with a trailing byte decoded")
		}
	}
	for _, body := range resps[:1] {
		for n := 0; n < len(body); n++ {
			if _, err := cluster.DecodeBatchResponse(string(body[:n])); err == nil {
				t.Fatalf("response cut to %d of %d bytes decoded", n, len(body))
			}
		}
	}
	// A JSON body names its version.
	_, err := cluster.DecodeBatchResponse(`{"version":2,"results":[]}`)
	if ve, ok := err.(*cluster.VersionError); !ok || ve.Got != 2 {
		t.Fatalf("JSON body: err = %v, want a version-2 VersionError", err)
	}
}

// syntheticResponse is one entry of a two-keyword partial set with
// variants variants per keyword and cands candidates.
func syntheticResponse(variants, cands int) []byte {
	ps := core.PartialSet{
		Keywords:  make([][]core.PartialVariant, 2),
		Paths:     []string{"/dblp/article", "/dblp/inproceedings"},
		TypeNorms: []core.TypeNorm{{Path: 0, Norm: 200}, {Path: 1, Norm: 100}},
	}
	for i := range ps.Keywords {
		for j := 0; j < variants; j++ {
			ps.Keywords[i] = append(ps.Keywords[i], core.PartialVariant{
				Word: strings.Repeat(string(rune('a'+j%26)), 3+j/26), Dist: j % 3,
			})
		}
	}
	for c := 0; c < cands; c++ {
		ps.Candidates = append(ps.Candidates, core.PartialCandidate{
			Choice:     []int32{int32(c % variants), int32((c + 1) % variants)},
			ResultType: int32(c % 2),
			Sum:        1e-5 * float64(c+1),
			Entities:   c + 1,
			Witness:    "\x00\x00\x00\x01\x00\x00\x00\x07",
			Coherence:  1,
		})
	}
	body, err := cluster.AppendBatchResponse(nil, &cluster.BatchResponse{
		Corpus:  "dblp",
		Results: []cluster.BatchEntry{{Query: "q", PartialSet: ps}},
	})
	if err != nil {
		panic(err)
	}
	return body
}

// TestDecodeAllocsGuard: decoding allocates per entry, not per field.
// A response with 4× the variants and candidates of another may cost
// at most a constant number of allocations more. The bound compares
// two measurements on the same toolchain, so it holds on any Go
// version.
func TestDecodeAllocsGuard(t *testing.T) {
	measure := func(variants, cands int) float64 {
		body := string(syntheticResponse(variants, cands))
		if _, err := cluster.DecodeBatchResponse(body); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() { cluster.DecodeBatchResponse(body) })
	}
	base, big := measure(6, 5), measure(24, 20)
	t.Logf("decode allocations: %.0f (6 variants, 5 candidates) → %.0f (24, 20)", base, big)
	if big > base+2 {
		t.Errorf("decode allocations grow with the fields: %.0f → %.0f for 4× the variants and candidates, want at most %.0f",
			base, big, base+2)
	}
}

func FuzzDecodeBatchRequest(f *testing.F) {
	reqs, _ := fixtureBodies(f)
	for _, b := range reqs {
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"queries":["q"]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := cluster.DecodeBatchRequest(string(body))
		if err != nil {
			return
		}
		// Whatever decodes re-encodes to a body that decodes the same.
		again, err := cluster.DecodeBatchRequest(string(cluster.AppendBatchRequest(nil, &req)))
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("re-encoded request differs: %v\n%+v\n%+v", err, again, req)
		}
	})
}

func FuzzDecodeBatchResponse(f *testing.F) {
	_, resps := fixtureBodies(f)
	for _, b := range resps {
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"results":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		br, err := cluster.DecodeBatchResponse(string(body))
		if err != nil {
			return
		}
		// A decoded response is safe to merge: every index is in range.
		for _, e := range br.Results {
			if e.Error == "" {
				core.MergePartials(core.MergeConfig{}, []core.PartialSet{e.PartialSet, e.PartialSet})
			}
		}
	})
}
