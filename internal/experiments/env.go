package experiments

import (
	"context"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/traffic"
)

// Config scopes the experiment suite. The defaults are a laptop-scale
// rendition of the paper's setup (Fig. 14): the paper's 4,076 sensors /
// 30-day months shrink to ~500 sensors / 28-day months, and δs scales down
// with deployment size (see EXPERIMENTS.md) so the significance machinery
// sits at the same operating point.
type Config struct {
	Sensors      int
	Months       int // datasets available for the construction sweep
	QueryMonths  int // datasets ingested for the query experiments
	DaysPerMonth int
	Seed         int64

	DeltaS   float64       // significance threshold δs
	DeltaD   float64       // distance threshold δd, miles
	DeltaT   time.Duration // time interval threshold δt
	DeltaSim float64       // similarity threshold δsim
	Balance  cluster.Balance
}

// Default returns the full harness configuration.
func Default() Config {
	return Config{
		Sensors:      400,
		Months:       12,
		QueryMonths:  3,
		DaysPerMonth: 28,
		Seed:         42,
		DeltaS:       0.02,
		DeltaD:       1.5,
		DeltaT:       15 * time.Minute,
		DeltaSim:     0.5,
		Balance:      cluster.Arithmetic,
	}
}

// Small returns a configuration sized for unit tests.
func Small() Config {
	cfg := Default()
	cfg.Sensors = 150
	cfg.Months = 3
	cfg.QueryMonths = 1
	cfg.DaysPerMonth = 7
	return cfg
}

// Env holds the state shared across experiments: the deployment, the
// generator, and memoized datasets and per-month extractions.
type Env struct {
	Cfg  Config
	Net  *traffic.Network
	Spec cps.WindowSpec
	Gen  *gen.Generator

	neighbors [][]cps.SensorID
	maxGap    int
	datasets  map[int]*gen.Dataset
	micros    map[int]map[int][]*cluster.Cluster // month -> day -> micros
	idgen     cluster.IDGen
}

// NewEnv builds the environment (network + generator; datasets on demand).
func NewEnv(cfg Config) (*Env, error) {
	netCfg := traffic.ScaledConfig(cfg.Sensors)
	netCfg.Seed = cfg.Seed
	net := traffic.GenerateNetwork(netCfg)
	spec := cps.DefaultSpec()
	gcfg := gen.DefaultConfig(net)
	gcfg.Seed = cfg.Seed
	gcfg.DaysPerMonth = cfg.DaysPerMonth
	g, err := gen.New(gcfg)
	if err != nil {
		return nil, err
	}
	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	return &Env{
		Cfg:       cfg,
		Net:       net,
		Spec:      spec,
		Gen:       g,
		neighbors: index.NewNeighborIndex(locs, cfg.DeltaD).NeighborLists(),
		maxGap:    cluster.MaxWindowGap(cfg.DeltaT, spec.Width),
		datasets:  make(map[int]*gen.Dataset),
		micros:    make(map[int]map[int][]*cluster.Cluster),
	}, nil
}

// Dataset returns month m, generating it on first use.
func (e *Env) Dataset(m int) *gen.Dataset {
	if ds, ok := e.datasets[m]; ok {
		return ds
	}
	ds := e.Gen.Month(m)
	e.datasets[m] = ds
	return ds
}

// Locs returns sensor locations indexed by SensorID.
func (e *Env) Locs() []geo.Point {
	locs := make([]geo.Point, e.Net.NumSensors())
	for i, s := range e.Net.Sensors {
		locs[i] = s.Loc
	}
	return locs
}

// IntegrateOptions returns the configured Algorithm 3 options (time-of-day
// temporal identity, as in the paper's Fig. 5 features).
func (e *Env) IntegrateOptions() cluster.IntegrateOptions {
	return cluster.IntegrateOptions{
		SimThreshold: e.Cfg.DeltaSim,
		Balance:      e.Cfg.Balance,
		Period:       cps.Window(e.Spec.PerDay()),
	}
}

// MonthMicros extracts (and memoizes) the per-day micro-clusters of month m
// under the configured δd/δt.
func (e *Env) MonthMicros(m int) map[int][]*cluster.Cluster {
	if mm, ok := e.micros[m]; ok {
		return mm
	}
	ds := e.Dataset(m)
	mm := make(map[int][]*cluster.Cluster)
	cps.ForEachDay(ds.Atypical.SplitByDay(e.Spec), func(day int, recs []cps.Record) {
		mm[day] = cluster.ExtractMicroClusters(&e.idgen, recs, e.neighbors, e.maxGap)
	})
	e.micros[m] = mm
	return mm
}

// flattenDays concatenates a per-day micro-cluster partition in ascending
// day order, so experiment tables are reproducible run to run.
func flattenDays(byDay map[int][]*cluster.Cluster) []*cluster.Cluster {
	var out []*cluster.Cluster
	cps.ForEachDay(byDay, func(_ int, micros []*cluster.Cluster) {
		out = append(out, micros...)
	})
	return out
}

// QueryStack assembles the online query engine over the first QueryMonths
// datasets: forest of per-day micro-clusters plus the bottom-up severity
// index for red zones.
func (e *Env) QueryStack() *query.Engine {
	opts := e.IntegrateOptions()
	f := forest.New(e.Spec, &e.idgen, opts, e.Cfg.DaysPerMonth)
	sev := cube.NewSeverityIndex(e.Net, e.Spec)
	for m := 0; m < e.Cfg.QueryMonths; m++ {
		for day, micros := range e.MonthMicros(m) {
			f.AddDay(day, micros)
		}
		sev.Add(e.Dataset(m).Atypical.Records())
	}
	return &query.Engine{Net: e.Net, Forest: f, Severity: sev, Gen: &e.idgen}
}

// mustRun answers q under s. Experiments run a local engine with a
// background context over the defined strategies, so RunCtx cannot fail.
func mustRun(engine *query.Engine, q query.Query, s query.Strategy) *query.Result {
	res, err := engine.RunCtx(context.Background(), q, s)
	if err != nil {
		panic(err)
	}
	return res
}

// QueryRanges are the Fig. 17–18 time ranges in days, truncated to the
// ingested span.
func (e *Env) QueryRanges() []int {
	all := []int{7, 14, 21, 28, 56, 84}
	max := e.Cfg.QueryMonths * e.Cfg.DaysPerMonth
	var out []int
	for _, d := range all {
		if d <= max {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}
