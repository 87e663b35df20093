package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/traffic"
)

// pipeline builds the full offline stack over a synthetic month: network,
// workload, micro-cluster extraction per day, forest, severity index.
func pipeline(t testing.TB, sensors, days int) (*Engine, cps.WindowSpec) {
	t.Helper()
	net := traffic.GenerateNetwork(traffic.ScaledConfig(sensors))
	spec := cps.DefaultSpec()
	cfg := gen.DefaultConfig(net)
	cfg.DaysPerMonth = days
	g, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Month(0)

	locs := sensorLocs(net)
	neighbors := index.NewNeighborIndex(locs, 1.5).NeighborLists()
	maxGap := cluster.MaxWindowGap(15*time.Minute, spec.Width)

	var idgen cluster.IDGen
	opts := cluster.IntegrateOptions{SimThreshold: 0.5, Balance: cluster.Arithmetic, Period: cps.Window(spec.PerDay())}
	f := forest.New(spec, &idgen, opts, days)
	cps.ForEachDay(ds.Atypical.SplitByDay(spec), func(day int, recs []cps.Record) {
		f.AddDay(day, cluster.ExtractMicroClusters(&idgen, recs, neighbors, maxGap))
	})
	sev := cube.NewSeverityIndex(net, spec)
	sev.Add(ds.Atypical.Records())
	return &Engine{Net: net, Forest: f, Severity: sev, Gen: &idgen}, spec
}

func sensorLocs(net *traffic.Network) []geo.Point {
	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	return locs
}

func TestStrategyString(t *testing.T) {
	if All.String() != "All" || Pru.String() != "Pru" || Gui.String() != "Gui" {
		t.Error("strategy names")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy name")
	}
}

func TestCityQueryCoversGrid(t *testing.T) {
	net := traffic.GenerateNetwork(traffic.ScaledConfig(200))
	spec := cps.DefaultSpec()
	q := CityQuery(net, spec, 0, 7, 0.05)
	if len(q.Regions) != net.Grid.NumRegions() {
		t.Errorf("regions = %d, want %d", len(q.Regions), net.Grid.NumRegions())
	}
	if q.Time.Days(spec) != 7 {
		t.Errorf("days = %d", q.Time.Days(spec))
	}
}

func TestBoxQuery(t *testing.T) {
	net := traffic.GenerateNetwork(traffic.ScaledConfig(200))
	spec := cps.DefaultSpec()
	half := net.Grid.Box
	half.Max.Lon = (half.Min.Lon + half.Max.Lon) / 2
	q := BoxQuery(net, spec, half, 0, 7, 0.05)
	if len(q.Regions) == 0 || len(q.Regions) >= net.Grid.NumRegions() {
		t.Errorf("box query regions = %d of %d", len(q.Regions), net.Grid.NumRegions())
	}
}

// run answers q under s with a background context, failing t on error.
func run(t testing.TB, e *Engine, q Query, s Strategy) *Result {
	t.Helper()
	res, err := e.RunCtx(context.Background(), q, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllBasics(t *testing.T) {
	e, spec := pipeline(t, 250, 7)
	q := CityQuery(e.Net, spec, 0, 7, 0.01)
	res := run(t, e, q, All)
	if res.InputMicros != res.CandidateMicros {
		t.Errorf("All must integrate every candidate: %d vs %d", res.InputMicros, res.CandidateMicros)
	}
	if res.InputMicros == 0 {
		t.Fatal("no micro-clusters in range; workload broken")
	}
	if len(res.Macros) == 0 {
		t.Fatal("no macros produced")
	}
	// Severity conservation through integration: the macros carry exactly
	// the severity of the candidate micro-clusters (those touching W).
	inRegion := make(map[geo.RegionID]bool)
	for _, r := range q.Regions {
		inRegion[r] = true
	}
	var inSev, outSev cps.Severity
	for _, c := range e.Forest.MicrosInRange(q.Time) {
		touches := false
		for _, entry := range c.SF {
			if inRegion[e.Net.Sensor(entry.Key).Region] {
				touches = true
				break
			}
		}
		if touches {
			inSev += c.Severity()
		}
	}
	for _, c := range res.Macros {
		outSev += c.Severity()
	}
	if diff := float64(inSev - outSev); diff > 1e-6*float64(inSev) || diff < -1e-6*float64(inSev) {
		t.Errorf("severity not conserved: in %v out %v", inSev, outSev)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
	// Significant ⊆ Macros, all above bound.
	for _, c := range res.Significant {
		if !c.Significant(res.Bound) {
			t.Error("insignificant cluster in Significant")
		}
	}
}

func TestRunPruReducesInputs(t *testing.T) {
	e, spec := pipeline(t, 250, 7)
	q := CityQuery(e.Net, spec, 0, 7, 0.01)
	all := run(t, e, q, All)
	pru := run(t, e, q, Pru)
	if pru.InputMicros > all.InputMicros {
		t.Errorf("Pru inputs %d > All inputs %d", pru.InputMicros, all.InputMicros)
	}
	if pru.InputMicros == all.InputMicros {
		t.Log("warning: Pru pruned nothing on this workload")
	}
}

func TestRunGuiPrunesAndKeepsSignificant(t *testing.T) {
	e, spec := pipeline(t, 250, 7)
	q := CityQuery(e.Net, spec, 0, 7, 0.01)
	all := run(t, e, q, All)
	gui := run(t, e, q, Gui)
	if gui.InputMicros > all.InputMicros {
		t.Errorf("Gui inputs %d > All inputs %d", gui.InputMicros, all.InputMicros)
	}
	if gui.RedZones == 0 && len(all.Significant) > 0 {
		t.Error("significant clusters exist but no red zones found")
	}
	// Gui must retrieve every significant cluster All finds (the paper's
	// no-false-negative claim): match by similarity.
	for _, want := range all.Significant {
		found := false
		for _, got := range gui.Significant {
			if cluster.Similarity(want, got, cluster.Arithmetic) >= 0.5 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Gui missed significant cluster %v", want)
		}
	}
}

func TestRunSubRegionQuery(t *testing.T) {
	e, spec := pipeline(t, 250, 7)
	city := CityQuery(e.Net, spec, 0, 7, 0.01)
	half := e.Net.Grid.Box
	half.Max.Lat = (half.Min.Lat + half.Max.Lat) / 2
	q := BoxQuery(e.Net, spec, half, 0, 7, 0.01)
	resCity := run(t, e, city, All)
	res := run(t, e, q, All)
	if res.CandidateMicros > resCity.CandidateMicros {
		t.Errorf("sub-region candidates %d > city candidates %d", res.CandidateMicros, resCity.CandidateMicros)
	}
}

func TestRunTimeSubrangeMonotone(t *testing.T) {
	e, spec := pipeline(t, 250, 7)
	short := run(t, e, CityQuery(e.Net, spec, 0, 2, 0.01), All)
	long := run(t, e, CityQuery(e.Net, spec, 0, 7, 0.01), All)
	if short.CandidateMicros > long.CandidateMicros {
		t.Errorf("2-day candidates %d > 7-day candidates %d", short.CandidateMicros, long.CandidateMicros)
	}
	if short.Bound >= long.Bound {
		t.Error("significance bound must grow with the query range")
	}
}

func TestRunUnknownStrategy(t *testing.T) {
	e, spec := pipeline(t, 200, 2)
	if _, err := e.RunCtx(context.Background(), CityQuery(e.Net, spec, 0, 1, 0.05), Strategy(42)); !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("RunCtx(Strategy(42)) = %v, want ErrUnknownStrategy", err)
	}
}

func TestEmptyRangeQuery(t *testing.T) {
	e, spec := pipeline(t, 200, 2)
	res := run(t, e, CityQuery(e.Net, spec, 40, 5, 0.05), All) // beyond data
	if res.CandidateMicros != 0 || len(res.Macros) != 0 {
		t.Errorf("out-of-range query returned data: %+v", res)
	}
}
