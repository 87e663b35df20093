package atypical

import (
	"context"
	"errors"
	"fmt"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/predict"
	"github.com/cpskit/atypical/internal/stream"
	"github.com/cpskit/atypical/internal/trust"
)

// This file exposes the Section VII extensions through the facade: online
// (streaming) event maintenance, event prediction, and trustworthiness
// analysis of sensors.

// StreamProcessor maintains atypical events over an ordered record stream,
// emitting micro-clusters as events close.
type StreamProcessor = stream.Processor

// NewStreamProcessor returns a processor wired to this system's thresholds
// (δd, δt). Emitted clusters carry system-unique IDs; feed them to the
// forest with IngestClusters or consume them directly. Every emitted cluster
// is also offered to the system's standing-query subscriptions (Subscribe)
// before the caller's emit hook runs — delivery is non-blocking, so slow
// subscribers never stall the stream. Observe rejects a record naming a
// sensor outside the deployment.
func (s *System) NewStreamProcessor(emit func(*Cluster)) (*StreamProcessor, error) {
	if emit == nil {
		// Validate before wrapping: the subscription fan-out closure below
		// would otherwise hide a nil hook from stream.New's config check.
		return nil, fmt.Errorf("%w: stream: Config.Emit is required", ErrInvalidConfig)
	}
	p, err := stream.New(stream.Config{
		Neighbors: s.neighbors,
		MaxGap:    s.maxGap,
		Emit: func(c *Cluster) {
			s.subs.Offer(c)
			emit(c)
		},
	}, &s.idgen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	p.SetObserver(s.registry)
	return p, nil
}

// IngestClusters adds externally produced micro-clusters (e.g. from a
// StreamProcessor) to the forest under their first record's day; in-process
// shards are views over that forest and see them with the same append. A
// WithShardServers coordinator only advances its forest version, as the
// append would. If any cluster is nil, fails Cluster.Valid or names a
// sensor outside the deployment, it returns an error wrapping
// ErrInvalidConfig and ingests nothing.
func (s *System) IngestClusters(micros []*Cluster) error {
	for i, c := range micros {
		if c == nil || !c.Valid() || !c.WithinSensors(s.net.NumSensors()) {
			return fmt.Errorf("%w: cluster %d of %d: want a micro count >= 1, sensors of the deployment, and features with ascending keys and finite, positive severities", ErrInvalidConfig, i, len(micros))
		}
	}
	perDay := Window(s.spec.PerDay())
	byDay := make(map[int][]*Cluster)
	for _, c := range micros {
		if len(c.TF) == 0 {
			continue
		}
		day := int(c.TF[0].Key / perDay)
		byDay[day] = append(byDay[day], c)
	}
	cps.ForEachDay(byDay, s.storeDay(s.Forest()))
	return nil
}

// PredictionModel forecasts per-sensor and per-window severity from
// historical macro-clusters.
type PredictionModel = predict.Model

// TrainPredictor integrates the micro-clusters of the day range
// [firstDay, firstDay+days) and trains a prediction model on the resulting
// macro-clusters (Section VII future work: event prediction). MinRecurrence
// drops patterns striking on a smaller fraction of days. The micro-clusters
// come from the query engine's candidates stage over the whole deployment,
// so a sharded system gathers them from its shards in the canonical order
// and trains the unsharded system's model; a shard lost after retry fails
// the call with ErrPartialResult.
func (s *System) TrainPredictor(firstDay, days int, minRecurrence float64) (*PredictionModel, error) {
	if days <= 0 {
		return nil, fmt.Errorf("%w: training range must be positive, got %d days", ErrInvalidConfig, days)
	}
	s.mu.RLock()
	engine := s.engine
	s.mu.RUnlock()
	q := s.buildQuery(QueryRequest{FirstDay: firstDay, Days: days})
	micros, failed, err := engine.Candidates(s.armSpans(context.Background()), q)
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("atypical: shards %v failed after retry: %w", failed, ErrPartialResult)
	}
	if len(micros) == 0 {
		return nil, fmt.Errorf("%w: no micro-clusters in days [%d, %d)", ErrNoData, firstDay, firstDay+days)
	}
	macros := cluster.Integrate(&s.idgen, micros, engine.Forest.Options())
	return predict.Train(macros, predict.Config{
		TrainingDays:  days,
		Period:        s.spec.PerDay(),
		MinRecurrence: minRecurrence,
	})
}

// TrustScore is one sensor's trustworthiness assessment.
type TrustScore = trust.Score

// TrustScores scores every reporting sensor of the record set by neighbor
// corroboration (Section VII future work: trustworthiness analysis).
func (s *System) TrustScores(rs *RecordSet) ([]TrustScore, error) {
	a, err := trust.New(trust.Config{Neighbors: s.neighbors, MaxGap: s.maxGap})
	if err != nil {
		return nil, err
	}
	return a.Scores(rs.Records()), nil
}

// FilterUntrusted returns a record set without the records of sensors whose
// trust falls below minTrust.
func (s *System) FilterUntrusted(rs *RecordSet, scores []TrustScore, minTrust float64) *RecordSet {
	filtered := trust.Filter(rs.Records(), scores, minTrust)
	out, err := cps.FromSorted(filtered)
	if err != nil {
		// Filter preserves canonical order; an error is a programming bug.
		panic(err)
	}
	return out
}

// SaveForest persists the forest's stored days to dir; higher levels are
// derived and integrated on demand, so nothing else is written. A
// WithShardServers coordinator stores no micro-clusters, so it has nothing
// to save and returns an error wrapping ErrInvalidConfig: save the shard
// servers instead.
func (s *System) SaveForest(dir string) error {
	if s.remote {
		return fmt.Errorf("%w: a WithShardServers coordinator stores no micro-clusters; save the shard servers' forests", ErrInvalidConfig)
	}
	return s.Forest().Save(dir)
}

// LoadForest replaces the system's forest with one previously saved by
// SaveForest. Clusters load with their exact severities and IDs, and the
// system's ID generator moves past them, so queries answer exactly as on
// the system that saved. The severity index is not persisted, so it is
// reset and marked stale: LoadForest returns ErrSeverityStale (wrapped) to
// make the degradation explicit even though the forest itself loaded fine.
// Callers that only run All/Pruned queries may treat that error as
// informational; callers needing Guided queries must RebuildSeverity with
// the original records, or use LoadForestAndRebuild. A WithShardServers
// coordinator decodes and checks every file the same way and moves its ID
// generator past the loaded IDs, but keeps none of the clusters.
func (s *System) LoadForest(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, _, err := forest.Load(dir, s.spec, &s.idgen, s.forest.Options(), s.cfg.DaysPerMonth,
		forest.LoadOptions{Registry: s.registry, Sensors: s.net.NumSensors()})
	if err != nil {
		return err
	}
	// The engine is rebuilt rather than mutated so queries that already
	// snapshotted the old engine finish against the old forest; the metric
	// handles carry over so counts aggregate across the swap.
	s.installForestLocked(f)
	return fmt.Errorf("atypical: forest loaded from %s: %w", dir, ErrSeverityStale)
}

// ForestRecovery reports what a recovering forest load quarantined.
type ForestRecovery = forest.LoadReport

// LoadForestRecover is LoadForest in recovery mode: corrupt cluster files
// are quarantined (renamed to *.corrupt, counted in
// atyp_storage_corrupt_total when an Observer is attached) and the healthy
// remainder is loaded. The report makes the degradation explicit — a
// forest missing quarantined segments answers queries without them, so the
// caller must decide whether that is acceptable. Like LoadForest, the
// severity index comes back stale: the returned error wraps
// ErrSeverityStale on success.
func (s *System) LoadForestRecover(dir string) (ForestRecovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, report, err := forest.Load(dir, s.spec, &s.idgen, s.forest.Options(), s.cfg.DaysPerMonth,
		forest.LoadOptions{Recover: true, Registry: s.registry, Sensors: s.net.NumSensors()})
	if err != nil {
		return report, err
	}
	s.installForestLocked(f)
	return report, fmt.Errorf("atypical: forest recovered from %s: %w", dir, ErrSeverityStale)
}

// installForestLocked swaps in a freshly loaded forest, resetting the
// severity index (not persisted, hence stale) and rebuilding the engine so
// queries already snapshotted against the old forest finish against it.
// In-process shards are views that resolve the system's forest per call, so
// they follow the swap with no re-feed; remote shard servers are independent
// processes and reload on their own. A WithShardServers coordinator keeps
// none of the loaded clusters: the load has already checked every file and
// moved the ID generator past them, so it installs an empty forest. Callers
// hold s.mu.
func (s *System) installForestLocked(f *forest.Forest) {
	if s.remote {
		f = forest.New(s.spec, &s.idgen, f.Options(), s.cfg.DaysPerMonth)
		f.SetObserver(s.registry)
	}
	s.forest = f
	s.sev.Reset()
	s.sevStale = true
	// The answer cache cannot rely on version stamps across a forest swap
	// (a freshly loaded forest restarts its version counter), so it is
	// cleared outright and carried into the new engine.
	s.cache.Clear()
	s.engine = s.newEngine(f, s.engine.Obs)
}

// RebuildSeverity reconstructs the bottom-up severity index from the record
// set the current forest was built over, clearing the staleness mark set by
// LoadForest. The rebuild day-shards across the configured workers. A record
// set IngestCtx would reject is rejected here too, before the index is
// touched.
func (s *System) RebuildSeverity(ctx context.Context, rs *RecordSet) error {
	if err := s.checkRecords(rs); err != nil {
		return err
	}
	s.mu.RLock()
	sev, workers := s.sev, s.workers
	s.mu.RUnlock()

	sev.Reset()
	byDay := rs.SplitByDay(s.spec)
	slices := make([][]cps.Record, 0, len(byDay))
	cps.ForEachDay(byDay, func(_ int, recs []cps.Record) {
		slices = append(slices, recs)
	})
	if err := sev.AddDays(ctx, slices, workers); err != nil {
		return err
	}
	s.mu.Lock()
	s.sevStale = false
	s.mu.Unlock()
	// Guided answers depend on the severity index, which changed without a
	// forest version bump: drop every cached answer.
	s.cache.Clear()
	return nil
}

// LoadForestAndRebuild is LoadForest followed by RebuildSeverity: the
// round-trip path that restores a fully query-able system (including Guided
// strategies) in one call. rs must be the record set the saved forest was
// built over.
func (s *System) LoadForestAndRebuild(ctx context.Context, dir string, rs *RecordSet) error {
	if err := s.LoadForest(dir); err != nil && !errors.Is(err, ErrSeverityStale) {
		return err
	}
	return s.RebuildSeverity(ctx, rs)
}
