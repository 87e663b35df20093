package experiments

import (
	"context"
	"math"
	"runtime"
	"time"

	"github.com/cpskit/atypical"
)

// ShardQueryBench is the sharded-query measurement attached to the
// bench-quick artifact: the same week-long Guided query answered once from
// the single forest and once scatter-gathered across Shards in-process
// shards. Identical confirms the two answers agree (candidate and input
// counts, significant-cluster count, bit-exact severities) — the benchmark
// doubles as an equivalence smoke test, with the full byte-identity
// guarantee covered by the root package's golden and fuzz tests.
type ShardQueryBench struct {
	Shards      int     `json:"shards"`
	UnshardedS  float64 `json:"unsharded_s"`
	ShardedS    float64 `json:"sharded_s"`
	Significant int     `json:"significant"`
	Identical   bool    `json:"identical"`
}

// MeasureShardedQuery builds a System over the environment's query months
// with WithShards(n), n >= 1, and times the same query answered from its
// own forest (BypassShards) and scatter-gathered across the shards. Macro-cluster IDs
// differ between the two runs (the System's generator keeps counting), so
// equivalence is checked on counts and bit-exact severities rather than raw
// bytes.
func MeasureShardedQuery(e *Env, n int) *ShardQueryBench {
	sys := e.system(e.Cfg.Config, e.Cfg.QueryMonths, atypical.WithShards(n))
	sharded := atypical.QueryRequest{Days: min(7, e.Cfg.QueryMonths*e.Cfg.DaysPerMonth), Strategy: atypical.Guided}
	unsharded := sharded
	unsharded.BypassShards = true
	base, shr, unshardedS, shardedS := fastestRuns(sys, unsharded, sharded)
	res := &ShardQueryBench{Shards: n, UnshardedS: unshardedS, ShardedS: shardedS, Significant: len(shr.Significant)}

	res.Identical = base.CandidateMicros == shr.CandidateMicros &&
		base.InputMicros == shr.InputMicros &&
		base.RedZones == shr.RedZones &&
		len(base.Significant) == len(shr.Significant)
	if res.Identical {
		for i := range base.Significant {
			if math.Float64bits(float64(base.Significant[i].Severity())) !=
				math.Float64bits(float64(shr.Significant[i].Severity())) {
				res.Identical = false
				break
			}
		}
	}
	return res
}

// queryReps is how many times fastestRuns answers each request: a query
// takes about a millisecond, so it repeats more often than a construction.
const queryReps = 5 * benchReps

// fastestRuns answers requests a and b on sys queryReps times each,
// alternating between them after a collection, and returns each request's
// last answer and smallest wall time in seconds.
func fastestRuns(sys *atypical.System, a, b atypical.QueryRequest) (resA, resB *atypical.RunResult, secsA, secsB float64) {
	timed := func(req atypical.QueryRequest) (*atypical.RunResult, float64) {
		start := time.Now()
		res, err := sys.Run(context.Background(), req)
		if err != nil {
			panic(err) // in-process shards never fail
		}
		return res, time.Since(start).Seconds()
	}
	secsA, secsB = math.Inf(1), math.Inf(1)
	runtime.GC()
	for range queryReps {
		var sa, sb float64
		resA, sa = timed(a)
		resB, sb = timed(b)
		secsA, secsB = min(secsA, sa), min(secsB, sb)
	}
	return resA, resB, secsA, secsB
}
