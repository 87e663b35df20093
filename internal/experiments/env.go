package experiments

import (
	"context"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
)

// Config scopes the experiment suite. The defaults are a laptop-scale
// rendition of the paper's setup (Fig. 14): the paper's 4,076 sensors /
// 30-day months shrink to ~500 sensors / 28-day months, and δs scales down
// with deployment size (see EXPERIMENTS.md) so the significance machinery
// sits at the same operating point.
type Config struct {
	atypical.Config
	Months      int // datasets available for the construction sweep
	QueryMonths int // datasets ingested for the query experiments
	Balance     atypical.Balance
}

// Default returns the full harness configuration.
func Default() Config {
	sys := atypical.DefaultConfig()
	sys.DaysPerMonth = 28
	return Config{Config: sys, Months: 12, QueryMonths: 3, Balance: atypical.BalanceArithmetic}
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

// Env holds the state shared across experiments: the System that answers
// the query experiments, holding the first QueryMonths datasets, and the
// memoized datasets. The neighbour lists and max window gap feed the layer
// benchmarks that time one algorithm directly.
type Env struct {
	Cfg  Config
	Sys  *atypical.System
	Net  *atypical.Network
	Spec atypical.WindowSpec

	neighbors [][]cps.SensorID
	maxGap    int
	datasets  map[int]*atypical.Dataset
}

// NewEnv builds the environment's System, with an observer attached for
// bench-quick's metrics snapshot, and ingests the query months into it.
func NewEnv(cfg Config) (*Env, error) {
	sys, err := atypical.NewSystem(cfg.Config, atypical.WithBalance(cfg.Balance), atypical.WithObserver(atypical.NewObserver()))
	if err != nil {
		return nil, err
	}
	e := &Env{
		Cfg:      cfg,
		Sys:      sys,
		Net:      sys.Network(),
		Spec:     sys.Spec(),
		maxGap:   cluster.MaxWindowGap(cfg.DeltaT, sys.Spec().Width),
		datasets: make(map[int]*atypical.Dataset),
	}
	e.neighbors = index.NewNeighborIndex(e.Locs(), cfg.DeltaD).NeighborLists()
	if err := e.ingest(sys, cfg.QueryMonths); err != nil {
		return nil, err
	}
	return e, nil
}

// ingest feeds the datasets of months [0, n) to sys.
func (e *Env) ingest(sys *atypical.System, n int) error {
	for m := range n {
		if err := sys.IngestCtx(context.Background(), e.Dataset(m).Atypical); err != nil {
			return err
		}
	}
	return nil
}

// system builds another System over cfg with the environment's balance
// function and opts, holding months [0, n): a point of a threshold sweep or
// a sharded twin of Sys. NewEnv accepted the same datasets, and callers
// pass valid thresholds and shard counts, so a failure is a bug.
func (e *Env) system(cfg atypical.Config, n int, opts ...atypical.Option) *atypical.System {
	sys, err := atypical.NewSystem(cfg, append(opts, atypical.WithBalance(e.Cfg.Balance))...)
	if err == nil {
		err = e.ingest(sys, n)
	}
	if err != nil {
		panic(err)
	}
	return sys
}

// run answers req on Sys. Experiments ask well-formed requests of an
// unsharded System under a background context, so Run cannot fail.
func (e *Env) run(req atypical.QueryRequest) *atypical.RunResult {
	res, err := e.Sys.Run(context.Background(), req)
	if err != nil {
		panic(err)
	}
	return res
}

// Dataset returns month m, generating it on first use.
func (e *Env) Dataset(m int) *atypical.Dataset {
	if ds, ok := e.datasets[m]; ok {
		return ds
	}
	ds := e.Sys.GenerateMonth(m)
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

// micros returns the micro-clusters of days [0, days) from Sys's forest,
// in day order.
func (e *Env) micros(days int) []*cluster.Cluster {
	return e.Sys.Forest().MicrosInRange(cps.DayRange(e.Spec, 0, days))
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
