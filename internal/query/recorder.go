package query

import (
	"context"
	"time"

	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/obs/flight"
)

// The query path's one instrumentation seam. A run reports each pipeline
// step exactly once, through recorder.stage(name, in, out), and finish
// derives every signal from those reports and the Result: the span tree
// (query.run, with query.redzones and query.integrate children), the
// EXPLAIN record, the flight-recorder wide event, and the Metrics/SLO
// observation. Each stage boundary reads the clock once and every sink sees
// that reading, so /debug/traces, EXPLAIN and /debug/querylog report the
// same duration for the same stage, and the SLO verdict on the wide event is
// computed from the elapsed time the SLO counters see. With no span
// exporter, Explain or flight event armed, stage reads no clock and
// allocates nothing; the run's start and finish reads remain, for
// Result.Elapsed.

// maxStages is the longest stage list a run records (scatter, gather,
// redzones, guided_filter, integrate, significance).
const maxStages = 6

// recorder observes one run. It lives on the run's stack; the pipeline
// writes the facts it computes anyway (versions, sensors, red zones, the
// scatter) into it as plain fields, and only finish turns them into signals.
type recorder struct {
	e    *Engine
	ctx  context.Context // carries root; stage spans hang off it
	root *obs.Span
	exp  *Explain
	fe   *flight.Event

	start, last time.Time
	stages      []ExplainStage

	q        Query
	s        Strategy
	sensors  int            // N, the sensors inside W
	ver, gen uint64         // forest version and severity generation read
	cache    string         // answer-cache verdict: "off", "miss", "hit"; "" when not consulted
	zones    []geo.RegionID // Gui's red zones
	// scattered marks a sharded run; info and shards are its fan-out.
	scattered bool
	info      ScatterInfo
	shards    []ShardResult
}

// arm starts recording one run of q under strategy s, picking the sinks from
// ctx and opening the root span. It returns the context the pipeline runs
// under, which carries the root span for stage and shard child spans.
func (r *recorder) arm(ctx context.Context, e *Engine, q Query, s Strategy) context.Context {
	r.e, r.q, r.s = e, q, s
	r.exp = ExplainFromContext(ctx)
	r.fe = flight.EventFromContext(ctx)
	r.start = time.Now()
	r.last = r.start
	//atyplint:ignore spanend the root span is ended by finish, which every run path reaches
	ctx, root := obs.StartAt(ctx, "query.run", r.start)
	root.SetAttr("strategy", s.String())
	r.ctx, r.root = ctx, root
	if r.exp != nil || r.fe != nil {
		r.stages = make([]ExplainStage, 0, maxStages)
	}
	return ctx
}

// stage records one finished pipeline step and its input/output
// cardinalities, with one clock read shared by every armed sink.
func (r *recorder) stage(name string, in, out int) {
	if r.exp == nil && r.fe == nil && r.root == nil {
		return
	}
	now := time.Now()
	if r.stages != nil {
		r.stages = append(r.stages, ExplainStage{Name: name, In: in, Out: out, DurationNS: int64(now.Sub(r.last))})
	}
	if span := stageSpan(name); span != "" && r.root != nil {
		_, sp := obs.StartAt(r.ctx, span, r.last)
		sp.EndAt(now)
	}
	r.last = now
}

// stageSpan names the child span a stage exports, "" for none.
func stageSpan(stage string) string {
	switch stage {
	case "redzones":
		return "query.redzones"
	case "integrate":
		return "query.integrate"
	}
	return ""
}

// finish closes the run: it stamps Result.Elapsed, ends the root span at the
// same instant, records the Metrics/SLO observation, and fills the armed
// EXPLAIN record and wide event. It passes its arguments through, so a run
// ends with `return rec.finish(body(...))`.
func (r *recorder) finish(res *Result, err error) (*Result, error) {
	end := time.Now()
	elapsed := end.Sub(r.start)
	if res != nil {
		res.Elapsed = elapsed
	}
	r.root.EndAt(end)
	r.e.Obs.observe(res, err)
	if r.exp != nil {
		r.exp.fill(r, res, elapsed)
	}
	if r.fe != nil {
		r.event(res, elapsed)
	}
	return res, err
}

// event stamps the engine's fields of the wide event; the facade adds the
// request-level ones (kind, key, error, end-to-end time).
func (r *recorder) event(res *Result, elapsed time.Duration) {
	fe := r.fe
	if r.root != nil {
		fe.TraceID = r.root.TraceHex()
	}
	fe.ForestVersion, fe.SeverityGen, fe.Cache = r.ver, r.gen, r.cache
	fe.Stages = r.stages
	if r.scattered {
		fe.Partial, fe.FailedShards = len(r.info.Failed) > 0, r.info.Failed
		if len(r.info.PerShard) > 0 {
			fe.Shards = make([]flight.ShardCall, len(r.info.PerShard))
			for i, ps := range r.info.PerShard {
				fe.Shards[i] = flight.ShardCall{
					Name: ps.Shard, DurationNS: ps.Duration.Nanoseconds(), Retried: ps.Retried, Failed: ps.Failed,
				}
			}
		}
	}
	if res != nil {
		fe.Candidates, fe.Inputs, fe.Significant = res.CandidateMicros, res.InputMicros, len(res.Significant)
	}
	if target, met, armed := r.e.Obs.SLOVerdict(r.s, elapsed); armed {
		fe.SLO = &flight.SLOVerdict{TargetNS: target.Nanoseconds(), Met: met}
	}
}
