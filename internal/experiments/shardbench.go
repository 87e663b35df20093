package experiments

import (
	"math"
	"runtime"
	"time"

	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/shard"
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

// MeasureShardedQuery serves the environment's query forest through n
// home-filtered shard views and times the unsharded versus the
// scatter-gathered answer to the same query. Macro-cluster IDs differ
// between the two runs (the shared generator keeps counting), so equivalence
// is checked on counts and bit-exact severities rather than raw bytes.
func MeasureShardedQuery(e *Env, n int) *ShardQueryBench {
	eng := e.QueryStack()
	views, err := shard.NewLocalViews(e.Net, func() *forest.Forest { return eng.Forest }, n)
	if err != nil {
		panic(err) // n >= 1 is the caller's contract
	}
	q := query.CityQuery(e.Net, e.Spec, 0, min(7, e.Cfg.QueryMonths*e.Cfg.DaysPerMonth), e.Cfg.DeltaS)

	sharded := *eng
	sharded.Scatterer = shard.NewCoordinator(views, nil)
	base, shr, unshardedS, shardedS := fastestRuns(eng, &sharded, q)
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

// queryReps is how many times fastestRuns answers its query on each
// engine: a query takes about a millisecond, so it repeats more often than
// a construction.
const queryReps = 5 * benchReps

// fastestRuns answers q with Gui queryReps times on each engine,
// alternating between them after a collection, and returns each engine's
// last answer and smallest wall time in seconds.
func fastestRuns(a, b *query.Engine, q query.Query) (resA, resB *query.Result, secsA, secsB float64) {
	timed := func(eng *query.Engine) (*query.Result, float64) {
		start := time.Now()
		res := mustRun(eng, q, query.Gui)
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
