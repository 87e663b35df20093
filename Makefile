GO      ?= go
FUZZTIME ?= 10s

CLUSTER_FUZZ = FuzzMergeCommutativity FuzzMergeAssociativity FuzzMicroVsRawAgreement FuzzFoldTemporalStable FuzzNewFeatureOrder FuzzIntegrateKernelEquivalence FuzzExtractEventsEquivalence FuzzClosureIntegrateEquivalence
CUBE_FUZZ    = FuzzCubeDeterminism FuzzColumnarSeverityEquivalence
OBS_FUZZ     = FuzzParseSeries FuzzHistogramMerge
QUERY_FUZZ   = FuzzCanonicalKeyCollisionFree
STORAGE_FUZZ = FuzzRecordReaderCorrupt FuzzReadClusters
ROOT_FUZZ    = FuzzShardedQueryEquivalence
SUB_FUZZ     = FuzzStandingQueryEquivalence

# Each fuzz list with the package directory it runs in (dir=LIST), in run
# order; fuzz-smoke and fuzz-lists both read the pairing from here.
FUZZ_SETS = internal/cluster=CLUSTER_FUZZ internal/cube=CUBE_FUZZ internal/obs=OBS_FUZZ \
	internal/query=QUERY_FUZZ internal/storage=STORAGE_FUZZ internal/subscribe=SUB_FUZZ .=ROOT_FUZZ
fuzz_dir  = $(firstword $(subst =, ,$(1)))
fuzz_list = $($(lastword $(subst =, ,$(1))))

.PHONY: all build test race lint lint-json fuzz-lists fuzz-smoke crash-matrix bench-quick shard-matrix load-smoke trace-stitch loc ci

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## lint: gofmt over every package directory of the module (analyzer
## testdata/ fixtures and the separate perfbench/ module are not packages
## of ./... and are skipped), curated go vet passes, and the project
## analyzers (see `go run ./cmd/atyplint -list` or the DESIGN.md invariant
## table — kept in sync by TestAnalyzerTableInSync). -time prints
## per-analyzer wall time on stderr. Must exit 0 on every PR.
lint:
	@unformatted=$$(for d in $$($(GO) list -f '{{.Dir}}' ./...); do gofmt -l "$$d"/*.go; done); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/atyplint -time ./...

## lint-json: the same findings as machine-readable JSON (including
## suppressed sites, marked), for the CI artifact and problem matcher.
lint-json:
	$(GO) run ./cmd/atyplint -json ./... > atyplint.json

## fuzz-lists: `go test -fuzz` exits 0 on a name it does not find ("no fuzz
## tests to fuzz"), so a misspelled or misplaced list entry would pass
## fuzz-smoke silently. Fails unless the lists name exactly the
## `func Fuzz…` targets in each package's test files, each under the
## package its list runs in.
fuzz-lists:
	@mod=$$($(GO) list -m); \
	defined=$$($(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read ip dir; do \
		rel=$${ip#$$mod}; rel=$${rel#/}; \
		sed -n "s|^func \(Fuzz[A-Za-z0-9_]*\)(.*|$${rel:-.}:\1|p" "$$dir"/*_test.go 2>/dev/null; \
	done | sort); \
	listed=$$(printf '%s\n' $(foreach s,$(FUZZ_SETS),$(foreach t,$(call fuzz_list,$(s)),$(call fuzz_dir,$(s)):$(t))) | sort); \
	if [ "$$defined" != "$$listed" ]; then \
		echo "fuzz-smoke lists out of sync with the fuzz targets in the tree:"; \
		echo "$$defined" | grep -vxF -e "$$listed" | sed 's/^/  defined, not listed: /'; \
		echo "$$listed" | grep -vxF -e "$$defined" | sed 's/^/  listed, not defined: /'; \
		exit 1; \
	fi

## fuzz-smoke: bounded-budget run of every fuzz target; catches regressions
## in the cluster algebra (Properties 2 and 3) and cube/report determinism
## without open-ended CI time.
fuzz-smoke: fuzz-lists
	@$(foreach s,$(FUZZ_SETS),for t in $(call fuzz_list,$(s)); do \
		echo "-- fuzz $$t ($(FUZZTIME))"; \
		$(GO) test ./$(call fuzz_dir,$(s)) -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done;)

## crash-matrix: the persistence gate. The fault-injection suite crashes
## every mutating filesystem operation of a catalog/manifest/forest save in
## turn (torn writes included), and the recovering reopen must land on the
## old state, the new state, or an explicit quarantine; never a parse error.
## TestStaleLevelFilesNeverQuarantined (matched by `Quarantin`) loads a
## forest directory holding week-*/month-* files from older saves, valid and
## corrupt: only day files are stored data, so the load is strict-clean and
## quarantines nothing. TestReloadReproducesIntegrationGolden saves three-month systems and
## reloads them into fresh ones, which must answer every integration golden
## request byte-identically. -count=1 defeats the test cache.
crash-matrix:
	$(GO) test . ./internal/faultfs/ ./internal/storage/ ./internal/forest/ \
		-run 'Crash|Quarantin|Recovery|Injector|FailRead|TestReloadReproducesIntegrationGolden' -count=1

## bench-quick: one serial-vs-parallel construction measurement, written to
## BENCH_parallel.json alongside a flattened metrics snapshot from an
## instrumented query pass (the observability smoke test). It measures in
## three child processes and keeps, per figure, the fastest calibrated value,
## since one process's fastest construction is bimodal between processes. The
## -maxregress gate (default 25%) compares each construction time in units
## of a fixed calibration workload timed in the same process, and the sharded
## query in units of the unsharded one, so host speed drifting between
## processes cancels out. It applies only against a previous artifact measured on
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
## shards, in-process and HTTP backends, fresh or loaded from disk, cached
## across an IngestClusters) must render byte-identically to the unsharded
## system, and shard loss must surface as an explicitly partial answer. An
## HTTP coordinator stores no micro-clusters: it must hold 0 of them at the
## data system's forest version, train the unsharded predictor from the
## gathered candidates, refuse what needs local micro-clusters (save, shard
## serving, BypassShards), and retire a cached answer when a new day arrives
## by IngestCtx or IngestClusters. -count=1 defeats the test cache so the
## matrix really runs on every invocation.
shard-matrix:
	$(GO) test . ./internal/shard/ \
		-run 'TestShardedQueryByteIdentical|TestBypassShardsByteIdentical|TestShardMatrix|TestShardedPartialFailure|TestShardedLoadForestByteIdentical|TestShardedCacheFreshAfterIngestClusters|TestCoordinatorStoresNoMicros|TestCoordinatorTrainPredictorEqualsUnsharded|TestCoordinatorCacheRetiresOnIngest|TestViewsPartitionByHomeShard|TestCoordinatorGatherEqualsUnshardedCandidates|TestHTTPBackendRoundTripAndFailure' \
		-count=1

## trace-stitch: the observability smoke — an in-process 2-shard atypserve
## pair plus a coordinator serve one sharded query, and the coordinator's
## /debug/traces must show the scatter with shard child spans, both shard
## servers must carry continuation spans under the coordinator's trace ID
## (W3C traceparent propagation), and /debug/querylog must hold the matching
## flight-recorder wide event. -count=1 defeats the test cache.
trace-stitch:
	$(GO) test ./cmd/atypserve/ -run TestTraceStitch -count=1

## loc: the code-size figure ROADMAP item 4 tracks — lines of non-test .go
## files outside perfbench/ (analyzer testdata/ fixtures included; hidden
## directories such as .git and .bench_build skipped). Diet PRs quote it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -exec cat {} + | wc -l

ci: build lint race crash-matrix shard-matrix fuzz-smoke bench-quick load-smoke trace-stitch
