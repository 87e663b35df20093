package atypical

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/obs/flight"
	"github.com/cpskit/atypical/internal/query"
)

// QueryRequest describes one analytical query Q(W, T) for System.Run, the
// single query entry point. Set only what differs from the defaults (whole city, the
// configured δs, IntegrateAll); a time period is mandatory, so the zero
// value is rejected by Validate — set Days or Window.
type QueryRequest struct {
	// Spatial scope W, first match wins:
	//
	//   1. Regions — the explicit pre-defined region set. A non-nil empty
	//      slice is honored as "no regions" (the degenerate query).
	//   2. Box — the regions intersecting the bounding box.
	//   3. neither — the whole deployment.
	Regions []RegionID
	Box     *BBox

	// Time period T: FirstDay/Days select the day-aligned range
	// [FirstDay, FirstDay+Days); a non-nil Window overrides it with a raw
	// half-open window range. Days must be positive unless Window is set
	// (Validate rejects the rest).
	FirstDay int
	Days     int
	Window   *TimeRange

	// DeltaS is the relative severity threshold δs of Definition 5; zero
	// selects the Config default, negative values are rejected by Validate.
	// (A literal δs = 0 run — bound 0, everything significant — is not
	// expressible.)
	DeltaS float64

	// Strategy selects IntegrateAll, Pruned or Guided (zero value:
	// IntegrateAll).
	Strategy Strategy

	// Explain arms per-run EXPLAIN collection; the record lands in
	// RunResult.Explain. Collection never changes the answer.
	Explain bool

	// AllowPartial tolerates shards lost after retry on a sharded system:
	// the run proceeds and the Report carries Partial/FailedShards. When
	// false (default), a partial answer is refused with ErrPartialResult —
	// either way the degradation is explicit, never silent.
	AllowPartial bool

	// BypassShards serves this run from the coordinator's own forest even
	// when sharding is configured — the shard hint for debugging and for
	// equivalence checks (a sharded and a bypassed run must agree byte for
	// byte). A WithShardServers coordinator stores no micro-clusters, so
	// there it fails with ErrInvalidRequest.
	BypassShards bool
}

// RunResult is Run's answer: the Report plus the EXPLAIN record when one
// was requested.
type RunResult struct {
	*Report
	// Explain is non-nil iff QueryRequest.Explain was set.
	Explain *Explain
}

// Validate checks the request's internal consistency before it reaches the
// engine. Violations return an error wrapping ErrInvalidRequest naming the
// offending field:
//
//   - Regions and Box are mutually exclusive spatial scopes;
//   - Days must be positive unless Window overrides the time period;
//   - DeltaS must be finite and not negative (zero selects the configured
//     default);
//   - Window, when set, must satisfy 0 <= From <= To.
//
// Run calls Validate on every request; calling it directly is useful for
// rejecting malformed requests at an API boundary before spending a
// round-trip (atypserve maps the error to HTTP 400).
func (r QueryRequest) Validate() error {
	if r.Regions != nil && r.Box != nil {
		return fmt.Errorf("%w: Regions and Box are mutually exclusive spatial scopes", ErrInvalidRequest)
	}
	if r.Window == nil && r.Days <= 0 {
		return fmt.Errorf("%w: Days must be positive (got %d) unless Window is set", ErrInvalidRequest, r.Days)
	}
	if !(r.DeltaS >= 0 && r.DeltaS <= math.MaxFloat64) {
		return fmt.Errorf("%w: DeltaS must be finite and not negative (got %v); zero selects the configured default", ErrInvalidRequest, r.DeltaS)
	}
	if w := r.Window; w != nil && (w.From < 0 || w.To < w.From) {
		return fmt.Errorf("%w: Window [%d, %d) must satisfy 0 <= From <= To", ErrInvalidRequest, w.From, w.To)
	}
	return nil
}

// Run executes one analytical query. It is the primitive every query entry
// point funnels through: it validates the request (ErrInvalidRequest),
// snapshots the current engine under the system lock (so a concurrent
// LoadForest cannot tear the query), refuses Guided runs while the severity
// index is stale (ErrSeverityStale), honors ctx between the engine's stages,
// and — on a sharded system — refuses partial answers unless
// req.AllowPartial is set.
func (s *System) Run(ctx context.Context, req QueryRequest) (*RunResult, error) {
	if err := req.Validate(); err != nil {
		s.obs.queryError()
		return nil, err
	}
	var exp *Explain
	if req.Explain {
		ctx, exp = query.WithExplain(ctx)
	}
	var fe *flight.Event
	var started time.Time
	if s.qlog != nil {
		ctx, fe = flight.WithEvent(ctx)
		started = time.Now()
	}
	q := s.buildQuery(req)
	rep, err := s.runQuery(ctx, q, req.Strategy, req.BypassShards)
	if err == nil && rep.Partial && !req.AllowPartial {
		s.obs.queryError()
		err = fmt.Errorf("atypical: shards %v failed after retry: %w", rep.FailedShards, ErrPartialResult)
	}
	if fe != nil {
		s.finishQueryEvent(fe, q, req, err, started)
		s.qlog.Record(fe)
	}
	if err != nil {
		return nil, err
	}
	return &RunResult{Report: rep, Explain: exp}, nil
}

// finishQueryEvent fills the request-level fields of a flight event after the
// engine ran: the engine's stage recorder already stamped trace ID, cache
// verdict, generations, cardinalities, stages, per-shard timings and the SLO
// verdict.
func (s *System) finishQueryEvent(fe *flight.Event, q query.Query, req QueryRequest, err error, started time.Time) {
	fe.Time = started
	fe.Kind = "query"
	fe.Key = query.CanonicalKey(q, req.Strategy)
	fe.Strategy = req.Strategy.String()
	fe.DurationNS = time.Since(started).Nanoseconds()
	if err != nil {
		fe.Err = err.Error()
	}
}

// buildQuery resolves a QueryRequest to the engine's query shape, matching
// the engine's constructors (CityQuery, BoxQuery) exactly.
func (s *System) buildQuery(req QueryRequest) query.Query {
	deltaS := req.DeltaS
	if deltaS <= 0 {
		deltaS = s.cfg.DeltaS
	}
	var tr cps.TimeRange
	if req.Window != nil {
		tr = *req.Window
	} else {
		tr = cps.DayRange(s.spec, req.FirstDay, req.Days)
	}
	var regions []geo.RegionID
	switch {
	case req.Regions != nil:
		regions = req.Regions
	case req.Box != nil:
		regions = s.net.Grid.RegionsIntersecting(*req.Box)
	default:
		regions = make([]geo.RegionID, 0, s.net.Grid.NumRegions())
		for _, r := range s.net.Grid.Regions() {
			regions = append(regions, r.ID)
		}
	}
	return query.Query{Regions: regions, Time: tr, DeltaS: deltaS}
}

// runQuery snapshots the engine and executes the resolved query.
func (s *System) runQuery(ctx context.Context, q query.Query, strat Strategy, bypassShards bool) (*Report, error) {
	s.mu.RLock()
	engine, stale := s.engine, s.sevStale
	s.mu.RUnlock()
	if strat == Guided && stale {
		s.obs.queryError()
		return nil, fmt.Errorf("atypical: guided query on stale severity index: %w", ErrSeverityStale)
	}
	if bypassShards && s.remote {
		s.obs.queryError()
		return nil, fmt.Errorf("%w: BypassShards on a WithShardServers coordinator, which stores no micro-clusters", ErrInvalidRequest)
	}
	if bypassShards && engine.Scatterer != nil {
		e := *engine
		e.Scatterer = nil
		engine = &e
	}
	res, err := engine.RunCtx(s.armSpans(ctx), q, strat)
	if err != nil {
		s.obs.queryError()
	}
	return res, err
}
