package experiments

import (
	"math"
	"slices"
	"time"

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

// MeasureShardedQuery partitions the environment's query forest across n
// shards and times the unsharded versus the scatter-gathered answer to the
// same query. Macro-cluster IDs differ between the two runs (the shared
// generator keeps counting), so equivalence is checked on counts and
// bit-exact severities rather than raw bytes.
func MeasureShardedQuery(e *Env, n int) *ShardQueryBench {
	eng := e.QueryStack()
	m, err := shard.NewMap(e.Net.Grid, n)
	if err != nil {
		panic(err) // n >= 1 is the caller's contract
	}
	set := shard.NewSet(m, e.Net, e.Spec, eng.Gen, e.IntegrateOptions(), e.Cfg.DaysPerMonth)
	for _, day := range eng.Forest.Days() {
		set.AppendDay(day, eng.Forest.Day(day))
	}
	q := query.CityQuery(e.Net, e.Spec, 0, min(7, e.Cfg.QueryMonths*e.Cfg.DaysPerMonth), e.Cfg.DeltaS)

	base, unshardedS := medianRun(eng, q)
	sharded := *eng
	sharded.Scatterer = shard.NewCoordinator(set.Backends(), nil)
	shr, shardedS := medianRun(&sharded, q)
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

// medianRun answers q with Gui benchReps times and returns the last answer
// with the median wall time in seconds.
func medianRun(eng *query.Engine, q query.Query) (*query.Result, float64) {
	var res *query.Result
	secs := make([]float64, benchReps)
	for i := range secs {
		start := time.Now()
		res = mustRun(eng, q, query.Gui)
		secs[i] = time.Since(start).Seconds()
	}
	slices.Sort(secs)
	return res, secs[benchReps/2]
}
