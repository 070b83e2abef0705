.PHONY: check build fmt vet test race bench bench-module fuzz-smoke snapshot-smoke mmap-smoke cluster-smoke replica-smoke shed-smoke trace-smoke ingest-smoke

# The full pre-merge gate: gofmt cleanliness, build everything, vet,
# run the test suite under the race detector (the parallel scan and
# fastss.Clone, the copy-on-write step of slca's Refresh, are exercised
# concurrently in the tests), and give the binary-format fuzz targets a
# short bounded run.
check: fmt build vet race fuzz-smoke

build:
	go build ./...

# Fail if any file needs reformatting (gofmt -l prints the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# The repository's benchmark (BENCHMARK.json): six workloads, every
# answer checked; `bash bench/run.sh -compare OLD.json NEW.json`
# compares two runs. See bench/README.md.
bench:
	bash bench/run.sh

# The bench/ module (the repository's benchmark, BENCHMARK.json) is not
# part of ./..., so an internal signature it compiles against can break
# it unnoticed: vet and build it, then run its six workloads at smoke
# size, every answer checked against a cold heap monolith. (-o: a lone
# main package would otherwise leave its binary in bench/.)
bench-module:
	cd bench && go vet ./... && go build -o /dev/null ./...
	bash bench/run.sh -smoke

# Bounded fuzz pass over the untrusted-bytes decoders: the snapshot
# split-posting-list decoder, the whole snapfile open path, and the
# coordinator's shard-response decoder.
# Truncation, flipped bytes, and oversized varints must error — never
# panic, never allocate proportionally to an unvalidated count.
# -fuzzminimizetime is capped because the default 60s-per-input
# minimization starves the fuzz loop on small CI machines.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run='^$$' -fuzz='^FuzzListOverPayload$$' -fuzztime=$(FUZZTIME) \
		-fuzzminimizetime=5x ./internal/postings
	go test -run='^$$' -fuzz='^FuzzOpen$$' -fuzztime=$(FUZZTIME) \
		-fuzzminimizetime=5x ./internal/snapfile
	go test -run='^$$' -fuzz='^FuzzDecodeBatchResponse$$' -fuzztime=$(FUZZTIME) \
		-fuzzminimizetime=5x ./internal/cluster

# End-to-end mmap warm-start smoke test: build a corpus, flush it to a
# .seg snapshot, reopen via mmap, and assert open latency ≪ cold build
# (and under an absolute millisecond budget) plus byte-identical
# suggestions, including through the -no-mmap fallback.
mmap-smoke:
	./scripts/mmap_smoke.sh

# End-to-end snapshot round trip: generate a corpus, build and save
# its index, then answer a query from the reopened snapshot — the same
# persistence path the catalog's warm-starts use.
snapshot-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/xgen -out "$$tmp/corpus.xml" -kind dblp -articles 500 -queries 1 && \
	go run ./cmd/xclean -doc "$$tmp/corpus.xml" -save-index "$$tmp/corpus.idx" && \
	q=$$(head -1 "$$tmp/corpus.xml.queries.tsv" | cut -f2) && \
	go run ./cmd/xclean -index "$$tmp/corpus.idx" "$$q" && \
	echo "snapshot-smoke: OK"

# End-to-end scatter-gather smoke test: 2 shard servers + 1
# coordinator on loopback; a healthy query must be complete, and a
# query after killing one shard must degrade to "partial": true.
cluster-smoke:
	./scripts/cluster_smoke.sh

# End-to-end replica-failover drill: 2 shards x 2 replicas + a
# standalone reference + 1 coordinator; a Go loader sustains mixed
# GET/batched-POST load while one replica of each shard is killed, and
# asserts zero "partial": true answers and 1e-12 score parity with the
# reference throughout.
replica-smoke:
	./scripts/replica_smoke.sh

# End-to-end admission-control smoke test: saturate an xserve running
# with -max-inflight 1 -max-queue 0 and assert a 429 shed with
# Retry-After and the JSON error envelope, then a 200 after the burst.
shed-smoke:
	./scripts/shed_smoke.sh

# End-to-end distributed-tracing smoke test: 2 shard servers (one
# artificially slowed with -inject-delay) + 1 tracing coordinator; the
# tail sampler must retain the slow trace and /tracez?id= must serve
# the stitched coordinator → shard-attempt → shard-stage span tree.
trace-smoke:
	./scripts/trace_smoke.sh

# End-to-end live-ingest smoke test: stream document additions and
# removals through /corpora admin actions while a query loop runs,
# asserting zero query errors, no stale cache answers, at least one
# completed background compaction, and a clean flush to one segment.
ingest-smoke:
	./scripts/ingest_smoke.sh
