GO      ?= go
FUZZTIME ?= 10s

CLUSTER_FUZZ = FuzzMergeCommutativity FuzzMergeAssociativity FuzzMicroVsRawAgreement FuzzParallelIntegrateEquivalence FuzzFoldTemporalStable FuzzNewFeatureOrder
CUBE_FUZZ    = FuzzCubeDeterminism FuzzColumnarSeverityEquivalence
OBS_FUZZ     = FuzzParseSeries FuzzHistogramMerge
QUERY_FUZZ   = FuzzCanonicalKeyCollisionFree
STORAGE_FUZZ = FuzzRecordReaderCorrupt
ROOT_FUZZ    = FuzzShardedQueryEquivalence
SUB_FUZZ     = FuzzStandingQueryEquivalence

.PHONY: all build test race lint lint-json fuzz-smoke crash-matrix bench-quick shard-matrix load-smoke trace-stitch ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## lint: curated go vet passes plus the project analyzers (see
## `go run ./cmd/atyplint -list` or the DESIGN.md invariant table —
## kept in sync by TestAnalyzerTableInSync). -time prints per-analyzer
## wall time on stderr. Must exit 0 on every PR.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/atyplint -time ./...

## lint-json: the same findings as machine-readable JSON (including
## suppressed sites, marked), for the CI artifact and problem matcher.
lint-json:
	$(GO) run ./cmd/atyplint -json ./... > atyplint.json

## fuzz-smoke: bounded-budget run of every fuzz target; catches regressions
## in the cluster algebra (Properties 2 and 3) and cube/report determinism
## without open-ended CI time.
fuzz-smoke:
	@for t in $(CLUSTER_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/cluster/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(CUBE_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/cube/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(OBS_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/obs/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(QUERY_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/query/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(STORAGE_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/storage/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(SUB_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./internal/subscribe/ -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	@for t in $(ROOT_FUZZ); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test . -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

## crash-matrix: the fault-injection suite — every mutating filesystem
## operation of a catalog/manifest/forest save is crashed in turn (torn
## writes included) and the recovering reopen must land on the old state,
## the new state, or an explicit quarantine; never a parse error.
crash-matrix:
	$(GO) test ./internal/faultfs/ ./internal/storage/ ./internal/forest/ \
		-run 'Crash|Quarantin|Recovery|Injector|FailRead' -count=1

## bench-quick: one serial-vs-parallel construction measurement, written to
## BENCH_parallel.json alongside a flattened metrics snapshot from an
## instrumented query pass (the observability smoke test). The -maxregress
## gate (default 25%) applies only against a previous artifact measured on
## the same host facts (GOMAXPROCS, CPU count, Go version); a baseline from
## another host is reported, not gated. Speedup is only
## meaningful on multi-core hosts; on a single core the two pipelines tie
## (the parallel path never degrades).
bench-quick:
	$(GO) run ./cmd/atypbench -sensors 250 -months 1 -days 14 -parjson BENCH_parallel.json

## load-smoke: the answer-cache load gate — a repeated-query read stream
## (2000 requests cycling 6 shapes) measured once without and once with the
## canonical-keyed cache, written to BENCH_load.json. The gate is the
## within-run cache-off/cache-on p99 ratio (LOADIMPROVE floor): both phases
## share the host and the moment, so the ratio is stable where cross-run
## absolute p99s — microsecond-scale when cached, restored from a possibly
## different runner — are not. The delta vs the previous artifact still
## prints, report-only (-maxregress 0).
LOADIMPROVE ?= 5
load-smoke:
	$(GO) run ./cmd/atypload -sensors 120 -days 7 -requests 2000 -distinct 6 \
		-mix 1 -workers 4 -subscribers 4 -json BENCH_load.json \
		-maxregress 0 -minimprove $(LOADIMPROVE)

## shard-matrix: the tentpole equivalence gate — sharded answers (1/2/8
## shards, in-process and HTTP backends) must render byte-identically to the
## unsharded system, and shard loss must surface as an explicitly partial
## answer. -count=1 defeats the test cache
## so the matrix really runs on every invocation.
shard-matrix:
	$(GO) test . ./internal/shard/ \
		-run 'TestShardedQueryByteIdentical|TestBypassShardsByteIdentical|TestShardMatrix|TestShardedPartialFailure|TestCoordinatorGatherEqualsUnshardedCandidates|TestHTTPBackendRoundTripAndFailure' \
		-count=1

## trace-stitch: the observability smoke — an in-process 2-shard atypserve
## pair plus a coordinator serve one sharded query, and the coordinator's
## /debug/traces must show the scatter with shard child spans, both shard
## servers must carry continuation spans under the coordinator's trace ID
## (W3C traceparent propagation), and /debug/querylog must hold the matching
## flight-recorder wide event. -count=1 defeats the test cache.
trace-stitch:
	$(GO) test ./cmd/atypserve/ -run TestTraceStitch -count=1

ci: build lint race crash-matrix shard-matrix fuzz-smoke bench-quick load-smoke trace-stitch
