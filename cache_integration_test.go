package atypical

import (
	"context"
	"sync"
	"testing"
)

// The answer cache must be invisible in the bytes: the miss path renders
// exactly what an uncached system renders, and a hit replays the original
// answer verbatim — including minted cluster IDs, which a recomputation
// would refresh. The same holds through the sharded gather path.
func TestQueryCacheByteIdentity(t *testing.T) {
	off := renderRuns(t, buildSystem(t), nil)
	if off == "" {
		t.Fatal("uncached system rendered nothing; identity check is vacuous")
	}
	for name, opts := range map[string][]Option{
		"unsharded": {WithQueryCache(16)},
		"sharded":   {WithShards(4), WithQueryCache(16)},
	} {
		t.Run(name, func(t *testing.T) {
			sys := buildSystem(t, opts...)
			first := renderRuns(t, sys, nil)
			if first != off {
				t.Fatalf("cache miss path diverged from uncached system:\n%s", diffAt(first, off))
			}
			second := renderRuns(t, sys, nil)
			if second != first {
				t.Fatalf("cache hit diverged from the original answer:\n%s", diffAt(second, first))
			}
			hits, misses, _ := sys.QueryCacheStats()
			if hits != 3 || misses != 3 {
				t.Fatalf("stats after two passes = %d hits, %d misses; want 3, 3", hits, misses)
			}
		})
	}
}

// Without WithQueryCache every run recomputes: no stats accrue, and the
// second pass mints fresh IDs (covered by stats staying zero).
func TestQueryCacheDisabledByDefault(t *testing.T) {
	sys := buildSystem(t)
	renderRuns(t, sys, nil)
	renderRuns(t, sys, nil)
	if h, m, e := sys.QueryCacheStats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("uncached system accrued cache stats: %d/%d/%d", h, m, e)
	}
}

// A cache hit surfaces in EXPLAIN as a single "cache" stage while the
// answer itself stays byte-identical to the computed run.
func TestQueryCacheExplainStage(t *testing.T) {
	sys := buildSystem(t, WithQueryCache(8))
	req := QueryRequest{Days: 7, Strategy: Guided, Explain: true}
	first, err := sys.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range first.Explain.Stages {
		if st.Name == "cache" {
			t.Fatal("computed run reported a cache stage")
		}
	}
	second, err := sys.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Explain.Stages) != 1 || second.Explain.Stages[0].Name != "cache" {
		t.Fatalf("hit stages = %+v, want exactly one cache stage", second.Explain.Stages)
	}
	if got, want := renderReport(sys, second.Report), renderReport(sys, first.Report); got != want {
		t.Fatalf("explained hit diverged from computed answer:\n%s", diffAt(got, want))
	}
	if second.Explain.Candidates.Scanned != first.Explain.Candidates.Scanned {
		t.Fatalf("hit explain scanned %d candidates, computed run %d",
			second.Explain.Candidates.Scanned, first.Explain.Candidates.Scanned)
	}
}

// Ingesting more days bumps the forest version, so every prior answer goes
// stale: the next lookup misses (and drops the entry) instead of serving a
// pre-ingest answer.
func TestQueryCacheInvalidatedByIngest(t *testing.T) {
	sys := buildSystem(t, WithQueryCache(8))
	req := QueryRequest{Days: 7}
	before := mustRun(t, sys, req)
	if rep := mustRun(t, sys, req); rep.CandidateMicros != before.CandidateMicros {
		t.Fatal("hit changed the answer")
	}
	mustIngest(t, sys, sys.GenerateMonth(1).Atypical)
	after := mustRun(t, sys, req)
	hits, misses, evictions := sys.QueryCacheStats()
	if hits != 1 || misses != 2 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1 hit, 2 misses, 1 stale eviction", hits, misses, evictions)
	}
	// The window [day 0, day 7) predates the second month, so the recomputed
	// answer has the same shape even though the cached one was unusable.
	if after.CandidateMicros != before.CandidateMicros {
		t.Fatalf("recomputed candidates = %d, want %d", after.CandidateMicros, before.CandidateMicros)
	}
}

// LRU capacity pressure surfaces through the facade stats: a one-entry
// cache thrashes between two distinct queries.
func TestQueryCacheEvictionThroughFacade(t *testing.T) {
	sys := buildSystem(t, WithQueryCache(1))
	a := QueryRequest{Days: 7}
	b := QueryRequest{Days: 3}
	mustRun(t, sys, a)
	mustRun(t, sys, b) // evicts a
	mustRun(t, sys, a) // miss again, evicts b
	_, misses, evictions := sys.QueryCacheStats()
	if misses != 3 || evictions < 2 {
		t.Fatalf("thrash stats = %d misses, %d evictions; want 3 misses, >= 2 evictions", misses, evictions)
	}
}

// The -race hammer: concurrent hits, misses, and a mid-flight ingest that
// invalidates everything. Every answer must be complete and error-free.
func TestQueryCacheConcurrentHammer(t *testing.T) {
	sys := buildSystem(t, WithQueryCache(4))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				strat := []Strategy{IntegrateAll, Pruned, Guided}[(g+i)%3]
				days := 3 + (g+i)%5
				res, err := sys.Run(context.Background(), QueryRequest{Days: days, Strategy: strat})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.Partial {
					t.Errorf("goroutine %d: unsharded answer flagged partial", g)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := sys.IngestCtx(context.Background(), sys.GenerateMonth(1).Atypical); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}
