package main

import (
	"context"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/dsu"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/traffic"
)

// stack is the pipeline rebuilt from the layers' public functions: its own
// ID generator, forest and severity index, fed and queried by this package
// rather than by atypical.System. It gives the traced run a place to time
// each layer call, and the answer checks an independent reference.
type stack struct {
	net       *traffic.Network
	spec      cps.WindowSpec
	opts      cluster.IntegrateOptions
	deltaS    float64
	neighbors [][]cps.SensorID
	maxGap    int
	city      []geo.RegionID

	gen    cluster.IDGen
	forest *forest.Forest
	sev    *cube.SeverityIndex
}

// newStack wires an empty stack with the parameters atypical.NewSystem
// derives from the same Config.
func newStack(in *inputs) *stack {
	cfg := in.cfg
	spec := cps.DefaultSpec()
	locs := make([]geo.Point, in.net.NumSensors())
	for i, s := range in.net.Sensors {
		locs[i] = s.Loc
	}
	s := &stack{
		net:       in.net,
		spec:      spec,
		deltaS:    cfg.DeltaS,
		neighbors: index.NewNeighborIndex(locs, cfg.DeltaD).NeighborLists(),
		maxGap:    cluster.MaxWindowGap(cfg.DeltaT, spec.Width),
		opts: cluster.IntegrateOptions{
			SimThreshold: cfg.SimThreshold,
			Balance:      cluster.Arithmetic,
			Period:       cps.Window(spec.PerDay()),
		},
	}
	for _, r := range in.net.Grid.Regions() {
		s.city = append(s.city, r.ID)
	}
	s.forest = forest.New(spec, &s.gen, s.opts, cfg.DaysPerMonth)
	s.sev = cube.NewSeverityIndex(in.net, spec)
	return s
}

// ingestDay runs one day of offline construction — extract, append,
// severity — as three timed layer calls. It returns the day's micro-clusters.
func (s *stack) ingestDay(tr *tracer, parent, day int, recs []cps.Record) ([]*cluster.Cluster, error) {
	ctx := context.Background()
	id := tr.start("cluster.extract", parent)
	per, err := cluster.ExtractMicroClustersDays(ctx, &s.gen, []cluster.DayRecords{{Day: day, Records: recs}}, s.neighbors, s.maxGap, 0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("forest.append", parent)
	s.forest.AppendDay(day, per[0])
	tr.end(id)
	id = tr.start("cube.severity", parent)
	err = s.sev.AddDays(ctx, [][]cps.Record{recs}, 0)
	tr.end(id)
	return per[0], err
}

// ingest feeds every day of rs, in day order, through ingestDay.
func (s *stack) ingest(tr *tracer, parent int, rs *atypical.RecordSet) (micros int, err error) {
	byDay := rs.SplitByDay(s.spec)
	cps.ForEachDay(byDay, func(day int, recs []cps.Record) {
		if err != nil {
			return
		}
		var cs []*cluster.Cluster
		cs, err = s.ingestDay(tr, parent, day, recs)
		micros += len(cs)
	})
	return micros, err
}

// resolve turns a request into the engine's query shape exactly as
// System.Run does: nil regions mean the whole city, zero δs the default.
func (s *stack) resolve(req atypical.QueryRequest) query.Query {
	regions := req.Regions
	if regions == nil {
		regions = s.city
	}
	deltaS := req.DeltaS
	if deltaS <= 0 {
		deltaS = s.deltaS
	}
	tr := cps.DayRange(s.spec, req.FirstDay, req.Days)
	if req.Window != nil {
		tr = *req.Window
	}
	return query.Query{Regions: regions, Time: tr, DeltaS: deltaS}
}

// answer is one recomposed Algorithm 4 run with its counts.
type answer struct {
	sig         []*cluster.Cluster
	rangeMicros int
	candidates  int
	inputs      []*cluster.Cluster
	redZones    int
}

// localCandidates is the unsharded candidates stage: MicrosInRange, then
// Touches against W.
func (s *stack) localCandidates(tr *tracer, parent int, q query.Query) (raw int, cands []*cluster.Cluster) {
	id := tr.start("forest.range", parent)
	all := s.forest.MicrosInRange(q.Time)
	tr.end(id)
	id = tr.start("query.filter", parent)
	cands = touching(s.net, all, regionSet(q.Regions))
	tr.end(id)
	return len(all), cands
}

// algorithm4 runs the strategy stages of Algorithm 4 over the candidates:
// day-bound prune (Pru) or red zones plus a second Touches (Gui), then
// Integrate and the significance check.
func (s *stack) algorithm4(tr *tracer, parent int, q query.Query, strat query.Strategy, cands []*cluster.Cluster) answer {
	a := answer{candidates: len(cands)}
	numSensors := 0
	for _, r := range q.Regions {
		numSensors += len(s.net.SensorsInRegion(r))
	}
	bound := cluster.SignificanceBound(q.DeltaS, q.Time.Len(), numSensors)
	switch strat {
	case query.All:
		a.inputs = cands
	case query.Pru:
		id := tr.start("query.prune", parent)
		dayBound := cluster.SignificanceBound(q.DeltaS, s.spec.PerDay(), numSensors)
		for _, c := range cands {
			if c.Significant(dayBound) {
				a.inputs = append(a.inputs, c)
			}
		}
		tr.end(id)
	case query.Gui:
		id := tr.start("cube.redzones", parent)
		zones := s.sev.GuidedRedZones(q.Regions, q.Time, q.DeltaS, numSensors)
		tr.end(id)
		a.redZones = len(zones)
		id = tr.start("query.guided_filter", parent)
		a.inputs = touching(s.net, cands, regionSet(zones))
		tr.end(id)
	}
	id := tr.start("cluster.integrate", parent)
	macros := cluster.Integrate(&s.gen, a.inputs, s.opts)
	tr.end(id)
	id = tr.start("query.significance", parent)
	for _, c := range macros {
		if c.Significant(bound) {
			a.sig = append(a.sig, c)
		}
	}
	tr.end(id)
	return a
}

// answerLocal is the whole unsharded recomposition of one request.
func (s *stack) answerLocal(tr *tracer, parent int, req atypical.QueryRequest) answer {
	q := s.resolve(req)
	raw, cands := s.localCandidates(tr, parent, q)
	a := s.algorithm4(tr, parent, q, req.Strategy, cands)
	a.rangeMicros = raw
	return a
}

func regionSet(rs []geo.RegionID) map[geo.RegionID]bool {
	m := make(map[geo.RegionID]bool, len(rs))
	for _, r := range rs {
		m[r] = true
	}
	return m
}

func touching(net *traffic.Network, cs []*cluster.Cluster, regions map[geo.RegionID]bool) []*cluster.Cluster {
	var out []*cluster.Cluster
	for _, c := range cs {
		if query.Touches(net, c, regions) {
			out = append(out, c)
		}
	}
	return out
}

// components returns the number of shared-key components of cs — clusters
// joined when they share a sensor or a folded time-of-day key, the only
// pairs integration can merge — and the size of the largest. A component is
// the unit per-component parallel integration could hand to one worker.
func components(cs []*cluster.Cluster, period cps.Window) (sets, largest int) {
	if len(cs) == 0 {
		return 0, 0
	}
	d := dsu.New(len(cs))
	bySensor := make(map[cps.SensorID]int)
	byKey := make(map[cps.Window]int)
	for i, c := range cs {
		for _, sn := range c.Sensors() {
			if j, ok := bySensor[sn]; ok {
				d.Union(i, j)
			} else {
				bySensor[sn] = i
			}
		}
		for _, k := range c.FoldedKeys(period) {
			if j, ok := byKey[k]; ok {
				d.Union(i, j)
			} else {
				byKey[k] = i
			}
		}
	}
	for i := range cs {
		if n := d.SetSize(i); n > largest {
			largest = n
		}
	}
	return d.Sets(), largest
}
