package cluster

import (
	"context"
	"fmt"

	"xclean/internal/core"
	"xclean/internal/obs"
)

// The shard request and response: POST /shard/suggest carries one or
// many queries in one round-trip per shard, in the binary form of
// wire.go. A single query (Suggest) is a batch of one; a coordinator
// serving bulk traffic (prefetchers, offline rescoring, as-you-type
// bursts) pays the connection, header, and framing cost once per shard
// instead of once per query. Every body rides the same leg lifecycle —
// replica routing, hedged retry to a different replica, attempt
// classification — with the whole body as the unit of hedging.

// MaxBatchQueries bounds one batched request (shard servers reject
// larger batches; the coordinator-side HTTP handler enforces it too).
const MaxBatchQueries = 256

// BatchRequest is the body of POST /shard/suggest.
type BatchRequest struct {
	// Version is the wire version the body spoke; encoders always
	// write WireVersion.
	Version int
	Corpus  string
	// RequestID correlates the shard's logs with the coordinator's.
	RequestID string
	Queries   []string
}

// BatchEntry is one query's partial result within a batched shard
// response. Error, when non-empty, marks this query failed on the
// shard (the others may still be good) and the entry carries no
// partials; the coordinator degrades just that query to partial.
type BatchEntry struct {
	Query string
	Error string
	core.PartialSet
}

// BatchResponse is the body a shard returns from POST /shard/suggest:
// one entry per request query, in request order.
type BatchResponse struct {
	// Version is as for BatchRequest.
	Version    int
	Corpus     string
	TookMillis float64
	// TraceSpan is the shard's span subtree (its server span parenting
	// every entry's engine stage spans) when the request carried a
	// sampled traceparent; the coordinator stitches it under the
	// attempt span whose ID it parents to. Nil on untraced requests —
	// the wire cost of tracing is one zero byte when off.
	TraceSpan *obs.SpanNode
	Results   []BatchEntry
}

// BatchQueryAnswer is one query's merged outcome within a coordinated
// batch.
type BatchQueryAnswer struct {
	Query       string
	Suggestions []core.MergedSuggestion
	// Partial is true when at least one shard did not contribute to
	// this query.
	Partial bool
}

// BatchAnswer is one coordinated batch answer.
type BatchAnswer struct {
	// Queries holds per-query merged results in request order.
	Queries []BatchQueryAnswer
	// Shards holds the batched legs' statuses in shard order (one leg
	// per shard covers the whole batch).
	Shards []ShardStatus
	// Partial is true when any query is partial.
	Partial bool
	// Corpus is the corpus name negotiated from shard responses.
	Corpus string
}

// SuggestBatch coordinates many queries in one batched round-trip per
// shard: each shard leg POSTs the full query list to its routed
// replica (hedging to a different replica exactly like a single
// query), then every query is merged independently across the
// surviving shards. A failed shard leg degrades every query to
// partial; a per-query error on a healthy shard degrades only that
// query. Batched legs are untraced. The only error is a merge-level
// inconsistency.
func (c *Coordinator) SuggestBatch(ctx context.Context, queries []string, corpus, requestID string) (*BatchAnswer, error) {
	if len(queries) == 0 {
		return &BatchAnswer{}, nil
	}
	if len(queries) > MaxBatchQueries {
		return nil, fmt.Errorf("cluster: batch of %d queries exceeds the %d limit",
			len(queries), MaxBatchQueries)
	}
	ans, _, err := c.fanOut(ctx, queries, corpus, requestID, nil)
	return ans, err
}
