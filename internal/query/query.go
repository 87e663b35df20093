// Package query implements online analytical query processing (Section IV):
// given Q(W, T), return the significant atypical clusters in spatial region
// W and time period T. Three strategies are provided — the exhaustive
// integrate-All baseline, beforehand Pruning, and red-zone Guided clustering
// (Algorithm 4) — with the counted inputs and timings the paper's Figs. 17–19
// report.
package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/traffic"
)

// ErrUnknownStrategy reports a Strategy value outside All/Pru/Gui. It is
// part of the facade's exported error set (atypical.ErrUnknownStrategy
// aliases it), so callers test it with errors.Is at either layer.
var ErrUnknownStrategy = errors.New("atypical: unknown query strategy")

// Strategy selects the online clustering strategy of Section V-B.
type Strategy uint8

// The three strategies compared in the evaluation.
const (
	// All integrates every micro-cluster in range: exact, quadratic in the
	// inputs. Its significant clusters are the experiments' ground truth.
	All Strategy = iota
	// Pru prunes micro-clusters that are not significant at day scale
	// before integrating: fast, but loses recall — a micro-cluster that
	// contributes to a significant macro-cluster may be trivial by itself.
	Pru
	// Gui is red-zone guided clustering (Algorithm 4): prune only
	// micro-clusters entirely outside regions whose bottom-up severity
	// passes the significance bound, which is safe by Property 5.
	Gui
)

// String implements fmt.Stringer using the paper's labels.
func (s Strategy) String() string {
	switch s {
	case All:
		return "All"
	case Pru:
		return "Pru"
	case Gui:
		return "Gui"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Query is an analytical query Q(W, T) at relative severity threshold δs.
type Query struct {
	// Regions is the pre-defined region set covering W.
	Regions []geo.RegionID
	// Time is the day-aligned query period T.
	Time cps.TimeRange
	// DeltaS is the relative severity threshold δs of Definition 5.
	DeltaS float64
}

// CityQuery builds a query over the whole deployment for the given
// day-aligned period.
func CityQuery(net *traffic.Network, spec cps.WindowSpec, firstDay, days int, deltaS float64) Query {
	regions := make([]geo.RegionID, 0, net.Grid.NumRegions())
	for _, r := range net.Grid.Regions() {
		regions = append(regions, r.ID)
	}
	return Query{Regions: regions, Time: cps.DayRange(spec, firstDay, days), DeltaS: deltaS}
}

// BoxQuery builds a query over the regions intersecting box.
func BoxQuery(net *traffic.Network, spec cps.WindowSpec, box geo.BBox, firstDay, days int, deltaS float64) Query {
	return Query{
		Regions: net.Grid.RegionsIntersecting(box),
		Time:    cps.DayRange(spec, firstDay, days),
		DeltaS:  deltaS,
	}
}

// Result carries the outcome of one query run.
type Result struct {
	Strategy Strategy
	// Macros are the macro-clusters produced by integration, before the
	// significance filter — what the precision measurements score.
	Macros []*cluster.Cluster
	// Significant are the macros passing Definition 5 at query scale.
	Significant []*cluster.Cluster
	// InputMicros counts the micro-clusters fed to integration — the I/O
	// measure of Fig. 17(b).
	InputMicros int
	// CandidateMicros counts the micro-clusters in range before strategy
	// pruning.
	CandidateMicros int
	// RedZones counts the regions passing the bound (Gui only).
	RedZones int
	// Bound is the significance severity bound δs·length(T)·N used.
	Bound cps.Severity
	// Partial reports that at least one shard failed after retry during a
	// scattered run, so the answer may be missing that shard's candidates.
	// Partial answers are always explicitly flagged, never silent.
	Partial bool
	// FailedShards names the shards behind Partial, in scatter order.
	FailedShards []string
	// Elapsed is the wall-clock query time.
	Elapsed time.Duration
}

// Engine answers analytical queries against a built forest. An Engine is
// safe for concurrent use: every Run may execute alongside other runs and
// alongside forest/severity ingestion (both structures take read snapshots).
type Engine struct {
	Net *traffic.Network
	// Forest holds the materialized per-day micro-clusters.
	Forest *forest.Forest
	// Severity is the bottom-up index used for red zones. Built offline
	// alongside the forest.
	Severity *cube.SeverityIndex
	// Gen supplies IDs for online merges.
	Gen *cluster.IDGen
	// Obs carries the engine's pre-resolved metric handles (NewMetrics).
	// nil — the default — disables instrumentation at the cost of one nil
	// check per run.
	Obs *Metrics
	// Scatterer, when non-nil, replaces the candidates stage of Run with a
	// scatter-gather fan-out over shards (see scatter.go). Forest must still
	// be set: it supplies the window spec and integration options.
	Scatterer Scatterer
	// Cache, when non-nil, serves repeated queries from the canonical-keyed
	// answer cache (cache.go). The lookup happens before the candidates
	// stage, so on a sharded engine a hit skips the whole scatter-gather
	// fan-out. Entries carry two stamps — the forest version and the
	// severity index generation — both read once at the top of the run,
	// before any forest or severity data, so a concurrent AppendDay or
	// severity write can only make a stored answer conservatively stale,
	// never silently fresh. The severity stamp matters because ingest bumps
	// the forest version before the severity index absorbs the same days: a
	// Guided run in that window pairs the new version with old red zones,
	// and without the second stamp would be cached as fresh indefinitely.
	Cache *AnswerCache
}

// RunCtx executes q under the given strategy with cooperative cancellation:
// the context is honored between pipeline stages. Every run — success or error — is recorded
// on Obs when configured, wrapped in a "query.run" span when ctx carries a
// span exporter, and reported into the Explain and flight event ctx carries
// (recorder.go).
func (e *Engine) RunCtx(ctx context.Context, q Query, s Strategy) (*Result, error) {
	var rec recorder
	ctx = rec.arm(ctx, e, q, s)
	return rec.finish(e.runCtx(ctx, &rec, q, s))
}

// runCtx is Algorithm 4: answer from the cache, or gather the candidates,
// apply the strategy's pruning, then integrate and check significance.
func (e *Engine) runCtx(ctx context.Context, rec *recorder, q Query, s Strategy) (*Result, error) {
	rec.ver, rec.gen = e.Forest.Version(), e.Severity.Gen()
	rec.cache = "off"
	var key string
	if e.Cache != nil {
		key = CanonicalKey(q, s)
		if hit, sensors, ok := e.Cache.get(key, rec.ver, rec.gen); ok {
			rec.cache, rec.sensors = "hit", sensors
			rec.stage("cache", hit.CandidateMicros, len(hit.Significant))
			return hit, nil
		}
		rec.cache = "miss"
	}

	rec.sensors = e.sensorsInRegions(q.Regions)
	res := &Result{Strategy: s, Bound: cluster.SignificanceBound(q.DeltaS, q.Time.Len(), rec.sensors)}
	candidates, err := e.candidates(ctx, rec, q, res)
	if err != nil {
		return nil, err
	}
	res.CandidateMicros = len(candidates)

	var inputs []*cluster.Cluster
	switch s {
	case All:
		inputs = candidates
	case Pru:
		// Beforehand pruning: keep micro-clusters significant at the scale
		// of one day (Example 6's "significant in the scale of one day").
		dayBound := cluster.SignificanceBound(q.DeltaS, e.Forest.Spec().PerDay(), rec.sensors)
		for _, c := range candidates {
			if c.Significant(dayBound) {
				inputs = append(inputs, c)
			}
		}
		rec.stage("prune", len(candidates), len(inputs))
	case Gui:
		// Algorithm 4, lines 1–3: compute red zones from the distributive
		// bottom-up severity, drop micro-clusters entirely outside them.
		rec.zones = e.Severity.GuidedRedZones(q.Regions, q.Time, q.DeltaS, rec.sensors)
		res.RedZones = len(rec.zones)
		rec.stage("redzones", len(q.Regions), len(rec.zones))
		if inputs, err = e.filterTouching(ctx, candidates, regionSet(rec.zones)); err != nil {
			return nil, err
		}
		rec.stage("guided_filter", len(candidates), len(inputs))
	default:
		return nil, fmt.Errorf("%w %v", ErrUnknownStrategy, s)
	}
	if err := e.integrateSignificant(ctx, rec, res, inputs); err != nil {
		return nil, err
	}
	if e.Cache != nil {
		// Partial answers are refused inside put; everything else is stamped
		// with the version and severity generation read before the first
		// data access, so an entry computed over state that changed mid-run
		// is stored already-stale and never served.
		e.Cache.put(key, rec.ver, rec.gen, rec.sensors, res)
	}
	return res, nil
}

// Candidates runs the candidates stage of Run on its own: the micro-clusters
// of q.Time touching q.Regions, in the canonical order integration consumes
// — read from the forest, or scattered to the shards and gathered. failed
// names the shards lost after retry, whose candidates are missing.
func (e *Engine) Candidates(ctx context.Context, q Query) (cs []*cluster.Cluster, failed []string, err error) {
	var rec recorder
	var res Result
	cs, err = e.candidates(ctx, &rec, q, &res)
	return cs, res.FailedShards, err
}

// candidates returns the micro-clusters in the time range touching W —
// served locally, or gathered from shards when a Scatterer is configured.
func (e *Engine) candidates(ctx context.Context, rec *recorder, q Query, res *Result) ([]*cluster.Cluster, error) {
	if e.Scatterer == nil {
		raw := e.Forest.MicrosInRange(q.Time)
		out, err := e.filterTouching(ctx, raw, regionSet(q.Regions))
		if err != nil {
			return nil, err
		}
		rec.stage("candidates", len(raw), len(out))
		return out, nil
	}
	shards, info, err := e.Scatterer.Scatter(ctx, q.Time, q.Regions)
	if err != nil {
		return nil, err
	}
	gathered := 0
	for _, sr := range shards {
		gathered += len(sr.Candidates)
	}
	res.Partial, res.FailedShards = len(info.Failed) > 0, info.Failed
	rec.scattered, rec.info, rec.shards = true, info, shards
	rec.stage("scatter", info.Shards, gathered)
	out := mergeShardCandidates(cps.Window(e.Forest.Spec().PerDay()), shards)
	rec.stage("gather", gathered, len(out))
	return out, nil
}

// integrateSignificant is Algorithm 4 lines 4–7: integrate the qualified
// micro-clusters, then keep the macro-clusters passing the significance
// bound, removing false positives.
func (e *Engine) integrateSignificant(ctx context.Context, rec *recorder, res *Result, inputs []*cluster.Cluster) error {
	res.InputMicros = len(inputs)
	if err := ctx.Err(); err != nil {
		return err
	}
	res.Macros = cluster.Integrate(e.Gen, inputs, e.Forest.Options())
	rec.stage("integrate", len(inputs), len(res.Macros))
	for _, c := range res.Macros {
		if c.Significant(res.Bound) {
			res.Significant = append(res.Significant, c)
		}
	}
	rec.stage("significance", len(res.Macros), len(res.Significant))
	return nil
}

// filterTouching keeps the clusters touching the region set, preserving
// input order.
func (e *Engine) filterTouching(ctx context.Context, cs []*cluster.Cluster, regions map[geo.RegionID]bool) ([]*cluster.Cluster, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []*cluster.Cluster
	for _, c := range cs {
		if Touches(e.Net, c, regions) {
			out = append(out, c)
		}
	}
	return out, nil
}

// regionSet indexes a region list for the touch test.
func regionSet(regions []geo.RegionID) map[geo.RegionID]bool {
	set := make(map[geo.RegionID]bool, len(regions))
	for _, r := range regions {
		set[r] = true
	}
	return set
}

// sensorsInRegions returns N, the number of sensors inside the query region.
func (e *Engine) sensorsInRegions(regions []geo.RegionID) int {
	n := 0
	for _, r := range regions {
		n += len(e.Net.SensorsInRegion(r))
	}
	return n
}
