// Package atypical is a library for multidimensional analysis of atypical
// events in cyber-physical system (CPS) data, reproducing Tang et al.,
// "Multidimensional Analysis of Atypical Events in Cyber-Physical Data"
// (ICDE 2012).
//
// A CPS deployment (e.g., a highway traffic monitoring network) streams
// records (sensor, window, severity) where the severity measure is the
// atypical duration within the window. This package:
//
//   - extracts atypical events — spatio-temporally connected record groups —
//     and summarizes each as an atypical micro-cluster holding a spatial
//     feature (severity per sensor) and temporal feature (severity per
//     window);
//   - integrates similar clusters into macro-clusters along hierarchical
//     aggregation paths (day → week → month), forming the atypical forest;
//   - answers analytical queries Q(W, T) for the significant clusters in a
//     spatial region and time period, using red-zone guided clustering to
//     prune trivial inputs without losing significant results.
//
// # Quick start
//
//	sys, err := atypical.NewSystem(atypical.DefaultConfig())
//	if err != nil { ... }
//	ds := sys.GenerateMonth(0)           // or ingest your own records
//	if err := sys.IngestCtx(ctx, ds.Atypical); err != nil { ... }
//	res, err := sys.Run(ctx, atypical.QueryRequest{
//		Days:     7,                     // Q(whole city, days [0, 7))
//		Strategy: atypical.Guided,
//	})
//	if err != nil { ... }
//	for _, c := range res.Significant {
//		fmt.Println(sys.Describe(c))
//	}
//
// Run is the single query entry point: QueryRequest selects the spatial
// scope (whole city, a bounding box, or explicit regions), the time window,
// the strategy, and per-run flags (EXPLAIN collection, partial-result
// tolerance under sharding).
//
// See the examples directory for complete programs.
package atypical

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/obs/flight"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/report"
	"github.com/cpskit/atypical/internal/shard"
	"github.com/cpskit/atypical/internal/subscribe"
	"github.com/cpskit/atypical/internal/traffic"
)

// Config parameterizes a System. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Sensors approximates the deployment size. The paper's PeMS deployment
	// has 4,076 sensors; tests and demos run well at a few hundred.
	Sensors int
	// Seed drives every random choice (network layout, workload).
	Seed int64
	// DaysPerMonth is the length of generated datasets.
	DaysPerMonth int

	// DeltaD is the distance threshold δd (miles) of Definition 1.
	DeltaD float64
	// DeltaT is the time interval threshold δt of Definition 1.
	DeltaT time.Duration
	// DeltaS is the default relative severity threshold δs of Definition 5.
	DeltaS float64
	// SimThreshold is the integration similarity threshold δsim.
	SimThreshold float64
}

// Option customizes a System beyond the plain Config — the context-aware
// construction API of the concurrent pipeline.
type Option func(*systemOptions)

// systemOptions collects functional-option state before wiring.
type systemOptions struct {
	workers     int
	balance     cluster.Balance
	balanceSet  bool
	registry    *obs.Registry
	exporter    obs.SpanExporter
	slos        []sloSpec
	shards      int
	shardURLs   []string
	shardClient *http.Client
	queryCache  int
	maxSubs     int
	maxSubsSet  bool
	subBuffer   int
	querylog    flight.Config
	querylogSet bool
}

// WithWorkers bounds the goroutines used for offline construction (per-day
// extraction and severity sharding). n > 0 means up to n goroutines, n < 0
// one per CPU, 0 (the default) the serial path. The produced forests,
// indexes and reports are byte-identical to the serial path's for every n;
// week, month and path levels always integrate serially, and queries always
// run serially.
func WithWorkers(n int) Option {
	return func(o *systemOptions) { o.workers = n }
}

// WithQueryWorkers does nothing: queries always run serially.
//
// Deprecated: the region-filter fan-out it configured is gone; drop it.
func WithQueryWorkers(int) Option { return func(*systemOptions) {} }

// WithQueryCache enables the canonical-keyed answer cache with room for
// `entries` finished queries (entries <= 0 leaves caching off). Cached
// answers are version-stamped against the forest's write-version counter,
// so every ingest invalidates them atomically; loading a different forest
// or rebuilding the severity index clears the cache outright. Answers
// served from the cache are byte-identical to a fresh run — partial
// (shard-degraded) answers are never stored — and cache traffic surfaces
// as atyp_query_cache_{hits,misses,evictions}_total when an Observer is
// attached, plus a "cache" stage in EXPLAIN records on hits.
func WithQueryCache(entries int) Option {
	return func(o *systemOptions) { o.queryCache = entries }
}

// DefaultMaxSubscribers caps concurrent standing-query subscriptions when
// WithSubscriptions is not used.
const DefaultMaxSubscribers = 1024

// WithSubscriptions overrides the standing-query subscriber cap (default
// DefaultMaxSubscribers): Subscribe beyond it fails with
// ErrTooManySubscribers. max <= 0 removes the cap. The cap protects the
// ingest path — every emitted micro-cluster is evaluated against every
// active subscription — not memory alone.
func WithSubscriptions(max int) Option {
	return func(o *systemOptions) { o.maxSubs = max; o.maxSubsSet = true }
}

// WithSubscriptionBuffer sets the per-subscriber push buffer capacity
// (default subscribe.DefaultBuffer). A subscriber that falls more than this
// many pushes behind starts dropping — explicitly, with
// atyp_sub_dropped_total accounting and a gap marker — rather than ever
// slowing ingest.
func WithSubscriptionBuffer(n int) Option {
	return func(o *systemOptions) { o.subBuffer = n }
}

// WithBalance selects the similarity balance function g by typed constant
// (BalanceArithmetic, BalanceMin, ...); the default is BalanceArithmetic.
// ParseBalance turns command-line names into the constants.
func WithBalance(b Balance) Option {
	return func(o *systemOptions) { o.balance = b; o.balanceSet = true }
}

// DefaultConfig returns the paper's default parameters (Fig. 14) at a
// laptop-friendly deployment scale. DeltaS is scaled down from the paper's
// 5% because the significance bound δs·length(T)·N grows with deployment
// size N while relative event mass shrinks; 2% puts the bound at the same
// operating point on the ~500-sensor default deployment as 5% on the
// paper's 4,076 sensors (see EXPERIMENTS.md).
func DefaultConfig() Config {
	return Config{
		Sensors:      400,
		Seed:         42,
		DaysPerMonth: 30,
		DeltaD:       1.5,
		DeltaT:       15 * time.Minute,
		DeltaS:       0.02,
		SimThreshold: 0.5,
	}
}

// System is the assembled pipeline: deployment topology, offline model
// construction (atypical forest + bottom-up severity index) and the online
// query engine.
//
// A System is safe for concurrent use: queries (Run) may run alongside
// each other and alongside ingestion. Construction parallelism is off by
// default; opt in with WithWorkers.
type System struct {
	cfg       Config
	net       *traffic.Network
	spec      cps.WindowSpec
	balance   cluster.Balance
	neighbors [][]cps.SensorID
	maxGap    int
	workers   int

	idgen cluster.IDGen
	gen   *gen.Generator

	// Observability wiring (nil when WithObserver/WithSpanExporter are not
	// used): the attached registry, the facade-level metric handles, and the
	// default span exporter armed onto entry-point contexts.
	registry *obs.Registry
	obs      *systemObs
	exporter obs.SpanExporter

	// coord is the scatter-gather coordinator the engine queries through
	// (nil when WithShards/WithShardServers are not used). See sharding.go.
	coord *shard.Coordinator
	// remote is set by WithShardServers: the shard servers hold the
	// micro-clusters, so this system's forest keeps only its version
	// counter (see storeDay).
	remote bool

	// cache is the optional canonical-keyed answer cache (WithQueryCache);
	// nil when caching is off. The pointer is fixed at construction — forest
	// swaps clear the cache and carry it into the rebuilt engine.
	cache *query.AnswerCache

	// qlog is the optional per-query flight recorder (WithQueryLog); nil
	// when recording is off. Run records one wide event per request into it.
	qlog *flight.Recorder

	// subs is the standing-query registry (subscribe.go). Always non-nil;
	// stream processors built by NewStreamProcessor fan emitted
	// micro-clusters into it before the caller's emit hook runs.
	subs *subscribe.Registry

	// mu guards the swappable model pointers (LoadForest replaces them) and
	// the severity staleness flag. The structures behind the pointers are
	// internally synchronized.
	mu       sync.RWMutex
	forest   *forest.Forest
	sev      *cube.SeverityIndex
	engine   *query.Engine
	sevStale bool
}

// NewSystem validates cfg, applies the options, generates the deployment
// topology and prepares an empty forest.
func NewSystem(cfg Config, options ...Option) (*System, error) {
	if cfg.Sensors <= 0 {
		return nil, fmt.Errorf("%w: Sensors must be positive, got %d", ErrInvalidConfig, cfg.Sensors)
	}
	if cfg.DeltaD <= 0 || cfg.DeltaT <= 0 {
		return nil, fmt.Errorf("%w: DeltaD and DeltaT must be positive", ErrInvalidConfig)
	}
	if cfg.SimThreshold <= 0 || cfg.SimThreshold > 1 {
		return nil, fmt.Errorf("%w: SimThreshold must be in (0, 1], got %v", ErrInvalidConfig, cfg.SimThreshold)
	}
	if cfg.DaysPerMonth <= 0 {
		return nil, fmt.Errorf("%w: DaysPerMonth must be positive, got %d", ErrInvalidConfig, cfg.DaysPerMonth)
	}
	var o systemOptions
	for _, opt := range options {
		opt(&o)
	}
	bal := cluster.Arithmetic
	if o.balanceSet {
		bal = o.balance
	}
	netCfg := traffic.ScaledConfig(cfg.Sensors)
	netCfg.Seed = cfg.Seed
	net := traffic.GenerateNetwork(netCfg)
	spec := cps.DefaultSpec()

	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	s := &System{
		cfg:       cfg,
		net:       net,
		spec:      spec,
		balance:   bal,
		neighbors: index.NewNeighborIndex(locs, cfg.DeltaD).NeighborLists(),
		maxGap:    cluster.MaxWindowGap(cfg.DeltaT, spec.Width),
		workers:   o.workers,
	}
	opts := cluster.IntegrateOptions{
		SimThreshold: cfg.SimThreshold,
		Balance:      bal,
		// Temporal features compare by time of day (Fig. 5), letting the
		// recurring daily events of a corridor integrate across days.
		Period: cps.Window(spec.PerDay()),
	}
	s.forest = forest.New(spec, &s.idgen, opts, cfg.DaysPerMonth)
	s.sev = cube.NewSeverityIndex(net, spec)

	// Observability: nil registry/exporter keep every hook a no-op.
	s.registry = o.registry
	s.exporter = o.exporter
	s.obs = newSystemObs(o.registry)
	s.forest.SetObserver(o.registry)
	s.cache = query.NewAnswerCache(o.queryCache)
	s.cache.BindMetrics(o.registry)
	if o.querylogSet {
		s.qlog = flight.NewRecorder(o.querylog)
	}
	metrics := query.NewMetrics(o.registry)
	for _, slo := range o.slos {
		metrics.SetSLO(slo.strat, slo.target)
	}
	if err := s.wireShards(&o); err != nil {
		return nil, err
	}
	s.engine = s.newEngine(s.forest, metrics)

	maxSubs := DefaultMaxSubscribers
	if o.maxSubsSet {
		maxSubs = o.maxSubs
	}
	subsReg, serr := subscribe.NewRegistry(subscribe.Config{
		Net: net, Spec: spec, Options: opts,
		MaxSubscribers: maxSubs, Buffer: o.subBuffer,
	})
	if serr != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, serr)
	}
	subsReg.SetObserver(o.registry)
	s.subs = subsReg

	gcfg := gen.DefaultConfig(net)
	gcfg.Seed = cfg.Seed
	gcfg.DaysPerMonth = cfg.DaysPerMonth
	var err error
	s.gen, err = gen.New(gcfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return s, nil
}

// newEngine builds the query engine over f. NewSystem and every forest swap
// build it here, so the two cannot wire the engine differently.
func (s *System) newEngine(f *forest.Forest, m *query.Metrics) *query.Engine {
	e := &query.Engine{Net: s.net, Forest: f, Severity: s.sev, Gen: &s.idgen, Obs: m, Cache: s.cache}
	if s.coord != nil { // a nil *Coordinator would be a non-nil Scatterer
		e.Scatterer = s.coord
	}
	return e
}

// armSpans attaches the system's configured span exporter to ctx unless the
// caller already armed one of their own.
func (s *System) armSpans(ctx context.Context) context.Context {
	if s.exporter == nil || obs.HasExporter(ctx) {
		return ctx
	}
	return obs.WithExporter(ctx, s.exporter)
}

// Network returns the deployment topology.
func (s *System) Network() *traffic.Network { return s.net }

// Spec returns the time window spec.
func (s *System) Spec() cps.WindowSpec { return s.spec }

// Forest returns the atypical forest built so far. On a WithShardServers
// coordinator it stores no micro-clusters (Stats reports 0); its Version
// still advances with every ingest.
func (s *System) Forest() *forest.Forest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.forest
}

// QueryCacheStats returns the lifetime hit/miss/eviction counts of the
// answer cache enabled by WithQueryCache; all zeros when caching is off.
func (s *System) QueryCacheStats() (hits, misses, evictions uint64) {
	return s.cache.Stats()
}

// GenerateMonth synthesizes dataset m (0-based) for this deployment — the
// stand-in for the paper's monthly PeMS datasets.
func (s *System) GenerateMonth(m int) *gen.Dataset { return s.gen.Month(m) }

// IngestCtx runs offline model construction over an atypical record set:
// Algorithm 1 per day (events → micro-clusters into the forest) plus the
// bottom-up severity index used for red zones. With WithWorkers set, the
// per-day work fans out across the pool; the resulting forest and index are
// byte-identical to a serial ingest regardless of worker count or
// GOMAXPROCS.
//
// A record set holding a sensor outside the deployment or a severity that
// is not finite and positive, or one whose events sum a feature entry to
// +Inf, is rejected whole with an error wrapping ErrInvalidConfig before
// anything is ingested. The context cancels cooperatively: no day is
// partially ingested, but days already handed to the forest stay, so
// callers abandoning an ingest mid-way should rebuild from scratch.
func (s *System) IngestCtx(ctx context.Context, rs *cps.RecordSet) error {
	ctx, sp := obs.Start(s.armSpans(ctx), "ingest")
	err := s.ingestCtx(ctx, rs)
	sp.End()
	if err != nil {
		s.obs.ingestError()
	}
	return err
}

// ingestCtx is IngestCtx's body, run under its span.
func (s *System) ingestCtx(ctx context.Context, rs *cps.RecordSet) error {
	s.mu.RLock()
	fst, sev, workers := s.forest, s.sev, s.workers
	s.mu.RUnlock()

	if err := s.checkRecords(rs); err != nil {
		return err
	}
	byDay := rs.SplitByDay(s.spec)
	days := make([]cluster.DayRecords, 0, len(byDay))
	cps.ForEachDay(byDay, func(day int, recs []cps.Record) {
		days = append(days, cluster.DayRecords{Day: day, Records: recs})
	})

	ctxEx, spEx := obs.Start(ctx, "ingest.extract")
	t := s.obs.now()
	perDay, err := cluster.ExtractMicroClustersDays(ctxEx, &s.idgen, days, s.neighbors, s.maxGap, workers)
	spEx.End()
	if err != nil {
		return err
	}
	for _, micros := range perDay {
		for _, c := range micros {
			if !c.Valid() {
				return fmt.Errorf("%w: event of %d windows sums a feature severity to +Inf", ErrInvalidConfig, len(c.TF))
			}
		}
	}
	s.obs.extractDone(t)

	_, spApp := obs.Start(ctx, "ingest.append")
	t = s.obs.now()
	store := s.storeDay(fst)
	micros := 0
	slices := make([][]cps.Record, len(days))
	for i, d := range days {
		store(d.Day, perDay[i])
		micros += len(perDay[i])
		slices[i] = d.Records
	}
	spApp.End()
	s.obs.appendDone(t)

	ctxSev, spSev := obs.Start(ctx, "ingest.severity")
	t = s.obs.now()
	err = sev.AddDays(ctxSev, slices, workers)
	spSev.End()
	if err != nil {
		return err
	}
	s.obs.severityDone(t)
	s.obs.ingested(int64(rs.Len()), int64(len(days)), int64(micros))
	return nil
}

// checkRecords is the rule every record set entering the system meets, on
// IngestCtx and RebuildSeverity alike: each record names a sensor of the
// deployment and carries a finite, positive severity. A violation returns an
// error wrapping ErrInvalidConfig.
func (s *System) checkRecords(rs *RecordSet) error {
	n := s.net.NumSensors()
	for _, r := range rs.Records() {
		if int(r.Sensor) >= n {
			return fmt.Errorf("%w: record %v: sensor outside the %d-sensor deployment", ErrInvalidConfig, r, n)
		}
		if !r.Severity.Valid() {
			return fmt.Errorf("%w: record %v: severity must be finite and positive", ErrInvalidConfig, r)
		}
	}
	return nil
}

// storeDay is the store step of every ingest path: fst.AppendDay, or on a
// WithShardServers coordinator, whose queries read micro-clusters from the
// shard servers only, fst.Touch, which advances the version as the append
// would and keeps nothing.
func (s *System) storeDay(fst *forest.Forest) func(day int, micros []*cluster.Cluster) {
	if s.remote {
		return fst.Touch
	}
	return fst.AppendDay
}

// IngestMonthsCtx generates and ingests months [0, n) through IngestCtx,
// returning the generated datasets (with ground truth) for inspection. On a
// rejected month or a cancelled context it returns the datasets ingested
// before it, with the error.
func (s *System) IngestMonthsCtx(ctx context.Context, n int) ([]*gen.Dataset, error) {
	out := make([]*gen.Dataset, 0, n)
	for m := 0; m < n; m++ {
		ds := s.GenerateMonth(m)
		if err := s.IngestCtx(ctx, ds.Atypical); err != nil {
			return out, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// Strategy selects the online clustering strategy.
type Strategy = query.Strategy

// Online strategies: IntegrateAll is exact and slow, Pruned is fast but
// lossy, Guided is the paper's red-zone guided clustering.
const (
	IntegrateAll = query.All
	Pruned       = query.Pru
	Guided       = query.Gui
)

// Report is the outcome of an analytical query.
type Report = query.Result

// Describe renders a cluster as the answer to Example 1's questions: where
// the event is, when it starts, and which road segment / time window is most
// serious.
func (s *System) Describe(c *cluster.Cluster) string {
	return report.Describe(s.net, s.spec, c)
}

// Ranking renders clusters as a ranked table, most severe first.
func (s *System) Ranking(clusters []*cluster.Cluster) string {
	return report.Ranking(s.net, s.spec, clusters)
}

// RegionHeatmap renders the severity map of req's time period over the
// region grid, marking the red zones a Guided run of req prunes to. req is
// resolved and validated exactly as Run resolves it (ErrInvalidRequest); a
// stale severity index is refused with ErrSeverityStale, as Guided runs are.
func (s *System) RegionHeatmap(req QueryRequest) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	s.mu.RLock()
	sev, stale := s.sev, s.sevStale
	s.mu.RUnlock()
	if stale {
		return "", fmt.Errorf("atypical: region heatmap on stale severity index: %w", ErrSeverityStale)
	}
	q := s.buildQuery(req)
	n := 0
	for _, r := range q.Regions {
		n += len(s.net.SensorsInRegion(r))
	}
	zones := sev.GuidedRedZones(q.Regions, q.Time, q.DeltaS, n)
	return report.RegionHeatmap(s.net, sev, q.Time, zones), nil
}
