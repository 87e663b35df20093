package subscribe

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/stream"
	"github.com/cpskit/atypical/internal/traffic"
)

// env is the shared deployment every test evaluates against.
type env struct {
	net       *traffic.Network
	spec      cps.WindowSpec
	neighbors [][]cps.SensorID
	maxGap    int
	opts      cluster.IntegrateOptions
}

func newEnv(sensors int) *env {
	net := traffic.GenerateNetwork(traffic.ScaledConfig(sensors))
	spec := cps.DefaultSpec()
	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	return &env{
		net:       net,
		spec:      spec,
		neighbors: index.NewNeighborIndex(locs, 1.5).NeighborLists(),
		maxGap:    cluster.MaxWindowGap(15*time.Minute, spec.Width),
		opts: cluster.IntegrateOptions{
			SimThreshold: 0.5,
			Balance:      cluster.Arithmetic,
			Period:       cps.Window(spec.PerDay()),
		},
	}
}

func (e *env) registry(t testing.TB, max, buffer int) *Registry {
	t.Helper()
	r, err := NewRegistry(Config{
		Net: e.net, Spec: e.spec, Options: e.opts,
		MaxSubscribers: max, Buffer: buffer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (e *env) cityQuery(days int, deltaS float64) query.Query {
	return query.CityQuery(e.net, e.spec, 0, days, deltaS)
}

// randRecords generates a canonical record stream confined to [0, days) days.
func (e *env) randRecords(rng *rand.Rand, n, days int) []cps.Record {
	perDay := e.spec.PerDay()
	recs := make([]cps.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, cps.Record{
			Sensor:   cps.SensorID(rng.Intn(e.net.NumSensors())),
			Window:   cps.Window(rng.Intn(days * perDay)),
			Severity: cps.Severity(rng.Intn(4)) + 1,
		})
	}
	return cps.NewRecordSet(recs).Records()
}

func drain(s *Subscription) []Push {
	var out []Push
	for {
		select {
		case p := <-s.Pushes():
			out = append(out, p)
		default:
			return out
		}
	}
}

func sortedFPs(cs []*cluster.Cluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = clusterFP(c)
	}
	sort.Strings(out)
	return out
}

// checkEquivalence runs the package's correctness anchor once: stream the
// records through a processor wired to the registry, then compare the
// replayed push state against the batch engine's answer over a forest built
// from the same emitted micros.
func checkEquivalence(t testing.TB, e *env, recs []cps.Record, days int, deltaS float64, strat query.Strategy) {
	t.Helper()
	reg := e.registry(t, 0, 1<<14)
	q := e.cityQuery(days, deltaS)
	sub, err := reg.Register(q, strat)
	if err != nil {
		t.Fatal(err)
	}

	var emitted []*cluster.Cluster
	var idgen cluster.IDGen
	p, err := stream.New(stream.Config{
		Neighbors: e.neighbors,
		MaxGap:    e.maxGap,
		Emit: func(c *cluster.Cluster) {
			emitted = append(emitted, c)
			reg.Offer(c)
		},
	}, &idgen)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("equivalence harness dropped %d pushes; grow the buffer", sub.Dropped())
	}

	// Batch rebuild from the stream's own emitted micros, mirroring the
	// facade's IngestClusters day assignment.
	var idgen2 cluster.IDGen
	fst := forest.New(e.spec, &idgen2, e.opts, 30)
	perDay := cps.Window(e.spec.PerDay())
	byDay := make(map[int][]*cluster.Cluster)
	for _, c := range emitted {
		if len(c.TF) == 0 {
			continue
		}
		byDay[int(c.TF[0].Key/perDay)] = append(byDay[int(c.TF[0].Key/perDay)], c)
	}
	cps.ForEachDay(byDay, func(day int, cs []*cluster.Cluster) {
		fst.AppendDay(day, cs)
	})
	engine := &query.Engine{
		Net: e.net, Forest: fst,
		Severity: cube.NewSeverityIndex(e.net, e.spec),
		Gen:      &idgen2,
	}
	res, err := engine.RunCtx(context.Background(), q, strat)
	if err != nil {
		t.Fatal(err)
	}

	rep := NewReplay()
	for _, push := range drain(sub) {
		rep.Apply(push)
	}
	if rep.Gaps != 0 {
		t.Fatalf("gap marker on a drop-free subscription")
	}
	got, want := sortedFPs(rep.Significant()), sortedFPs(res.Significant)
	if len(got) != len(want) {
		t.Fatalf("standing query replayed %d significant clusters, batch %d (strat %v, %d records)",
			len(got), len(want), strat, len(recs))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("significant cluster %d differs from batch (strat %v)", i, strat)
		}
	}
}

// The tentpole's anchor: pushed events equal the batch Run answer after
// flush + rebuild, bit-identical features, across random streams, both
// supported strategies, and several δs operating points.
func TestStandingQueryMatchesBatchRun(t *testing.T) {
	e := newEnv(80)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		days := 1 + trial%3
		n := 200 + rng.Intn(400)
		deltaS := []float64{1e-6, 0.0005, 0.002, 0.01}[trial%4]
		recs := e.randRecords(rng, n, days)
		for _, strat := range []query.Strategy{query.All, query.Pru} {
			checkEquivalence(t, e, recs, days, deltaS, strat)
		}
	}
}

// A standing query scoped to a region subset must match the batch answer for
// the same explicit scope (the W filter mirrors filterTouching).
func TestStandingQueryRegionScope(t *testing.T) {
	e := newEnv(80)
	rng := rand.New(rand.NewSource(11))
	all := e.cityQuery(2, 0.001)
	q := query.Query{Regions: all.Regions[:len(all.Regions)/2], Time: all.Time, DeltaS: all.DeltaS}

	reg := e.registry(t, 0, 1<<14)
	sub, err := reg.Register(q, query.All)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []*cluster.Cluster
	var idgen cluster.IDGen
	p, err := stream.New(stream.Config{
		Neighbors: e.neighbors, MaxGap: e.maxGap,
		Emit: func(c *cluster.Cluster) { emitted = append(emitted, c); reg.Offer(c) },
	}, &idgen)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.randRecords(rng, 400, 2) {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	var idgen2 cluster.IDGen
	fst := forest.New(e.spec, &idgen2, e.opts, 30)
	perDay := cps.Window(e.spec.PerDay())
	byDay := make(map[int][]*cluster.Cluster)
	for _, c := range emitted {
		byDay[int(c.TF[0].Key/perDay)] = append(byDay[int(c.TF[0].Key/perDay)], c)
	}
	cps.ForEachDay(byDay, func(day int, cs []*cluster.Cluster) { fst.AppendDay(day, cs) })
	engine := &query.Engine{Net: e.net, Forest: fst, Severity: cube.NewSeverityIndex(e.net, e.spec), Gen: &idgen2}
	res, err := engine.RunCtx(context.Background(), q, query.All)
	if err != nil {
		t.Fatal(err)
	}

	rep := NewReplay()
	for _, push := range drain(sub) {
		rep.Apply(push)
	}
	got, want := sortedFPs(rep.Significant()), sortedFPs(res.Significant)
	if len(got) != len(want) {
		t.Fatalf("region-scoped standing query: %d significant, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("region-scoped cluster %d differs from batch", i)
		}
	}
}

func TestRegisterLimitAndStrategies(t *testing.T) {
	e := newEnv(30)
	reg := e.registry(t, 2, 0)
	q := e.cityQuery(1, 0.01)
	if _, err := reg.Register(q, query.All); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(q, query.Pru); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(q, query.All); !errors.Is(err, ErrRegistryFull) {
		t.Errorf("third Register error = %v, want ErrRegistryFull", err)
	}
	if _, err := reg.Register(q, query.Gui); !errors.Is(err, ErrUnsupportedStrategy) {
		t.Errorf("Guided Register error = %v, want ErrUnsupportedStrategy", err)
	}
	if _, err := reg.Register(q, query.Strategy(99)); !errors.Is(err, query.ErrUnknownStrategy) {
		t.Errorf("bogus strategy error = %v, want ErrUnknownStrategy", err)
	}
	if reg.Active() != 2 {
		t.Errorf("Active = %d, want 2", reg.Active())
	}
}

func TestUnregisterStopsDelivery(t *testing.T) {
	e := newEnv(30)
	reg := e.registry(t, 0, 4)
	sub, err := reg.Register(e.cityQuery(1, 1e-9), query.All)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Unregister(sub.ID()) {
		t.Fatal("Unregister reported unknown id")
	}
	if reg.Unregister(sub.ID()) {
		t.Error("double Unregister reported success")
	}
	select {
	case <-sub.Done():
	default:
		t.Error("Done not closed after Unregister")
	}
	var g cluster.IDGen
	reg.Offer(cluster.FromRecords(g.Next(), []cps.Record{{Sensor: 0, Window: 1, Severity: 3}}))
	if got := drain(sub); len(got) != 0 {
		t.Errorf("unregistered subscription received %d pushes", len(got))
	}
	if reg.Active() != 0 {
		t.Errorf("Active = %d after Unregister", reg.Active())
	}
}

// Backpressure: a full buffer drops with accounting and the next delivered
// push carries the gap marker — ingest never blocks.
func TestSlowSubscriberDropsWithGapMarker(t *testing.T) {
	e := newEnv(30)
	reg := e.registry(t, 0, 1)
	sub, err := reg.Register(e.cityQuery(1, 1e-9), query.All)
	if err != nil {
		t.Fatal(err)
	}
	var g cluster.IDGen
	// Distinct sensors and windows: each micro is its own component and,
	// with a near-zero δs, its own significant push.
	offer := func(sensor, window int) {
		reg.Offer(cluster.FromRecords(g.Next(), []cps.Record{
			{Sensor: cps.SensorID(sensor), Window: cps.Window(window), Severity: 3},
		}))
	}
	offer(0, 1)  // delivered into the 1-slot buffer
	offer(5, 40) // dropped: buffer full
	if sub.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", sub.Dropped())
	}
	first := drain(sub)
	if len(first) != 1 || first[0].Gap {
		t.Fatalf("first delivery = %+v, want one gap-free push", first)
	}
	offer(9, 80) // delivered; must carry the gap marker
	second := drain(sub)
	if len(second) != 1 || !second[0].Gap {
		t.Fatalf("post-drop delivery = %+v, want one push with Gap", second)
	}
	if second[0].Seq <= first[0].Seq {
		t.Errorf("Seq did not advance across the drop: %d then %d", first[0].Seq, second[0].Seq)
	}
}

// Out-of-scope micros — wrong day range or no region overlap — never touch
// the evaluator state.
func TestScopeFiltering(t *testing.T) {
	e := newEnv(30)
	reg := e.registry(t, 0, 8)
	sub, err := reg.Register(e.cityQuery(1, 1e-9), query.All)
	if err != nil {
		t.Fatal(err)
	}
	perDay := e.spec.PerDay()
	var g cluster.IDGen
	// Day 3 is outside the [0, 1) day scope.
	reg.Offer(cluster.FromRecords(g.Next(), []cps.Record{
		{Sensor: 0, Window: cps.Window(3*perDay + 5), Severity: 9},
	}))
	if got := drain(sub); len(got) != 0 {
		t.Fatalf("out-of-range micro pushed %d times", len(got))
	}
	// Empty region scope: nothing touches W.
	empty, err := reg.Register(query.Query{Regions: []geo.RegionID{}, Time: cps.DayRange(e.spec, 0, 1), DeltaS: 1e-9}, query.All)
	if err != nil {
		t.Fatal(err)
	}
	reg.Offer(cluster.FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 2, Severity: 9}}))
	if got := drain(empty); len(got) != 0 {
		t.Fatalf("empty-scope subscription pushed %d times", len(got))
	}
}

func TestReplayAbsorbAndRetract(t *testing.T) {
	a := cluster.FromRecords(1, []cps.Record{{Sensor: 1, Window: 1, Severity: 2}})
	b := cluster.FromRecords(2, []cps.Record{{Sensor: 2, Window: 2, Severity: 3}})
	rep := NewReplay()
	rep.Apply(Push{Seq: 1, Component: 1, Clusters: []*cluster.Cluster{a}})
	rep.Apply(Push{Seq: 2, Component: 3, Clusters: []*cluster.Cluster{b}})
	if len(rep.Significant()) != 2 {
		t.Fatalf("state = %d clusters, want 2", len(rep.Significant()))
	}
	// Component 3 merges into 1; later 1 retracts to empty.
	rep.Apply(Push{Seq: 3, Component: 1, Absorbed: []uint64{3}, Clusters: []*cluster.Cluster{a}})
	if len(rep.Significant()) != 1 {
		t.Fatalf("after absorb state = %d clusters, want 1", len(rep.Significant()))
	}
	rep.Apply(Push{Seq: 4, Component: 1, Gap: true, Clusters: nil})
	if len(rep.Significant()) != 0 {
		t.Fatalf("after retraction state = %d clusters, want 0", len(rep.Significant()))
	}
	if rep.Gaps != 1 {
		t.Errorf("Gaps = %d, want 1", rep.Gaps)
	}
}

// TestClusterFPExact pins the fingerprint's exactness: clusters that differ
// in one severity bit, or only in where SF ends and TF begins, must get
// different fingerprints, and equal features equal ones.
func TestClusterFPExact(t *testing.T) {
	sf := func(es ...cluster.Entry[cps.SensorID]) cluster.SpatialFeature { return es }
	tf := func(es ...cluster.Entry[cps.Window]) cluster.TemporalFeature { return es }
	base := &cluster.Cluster{
		SF: sf(cluster.Entry[cps.SensorID]{Key: 1, Sev: 1}, cluster.Entry[cps.SensorID]{Key: 2, Sev: 1}),
		TF: tf(cluster.Entry[cps.Window]{Key: 3, Sev: 2}),
	}
	same := &cluster.Cluster{SF: slices.Clone(base.SF), TF: slices.Clone(base.TF)}
	if clusterFP(base) != clusterFP(same) {
		t.Fatal("equal features gave different fingerprints")
	}
	oneBit := &cluster.Cluster{SF: slices.Clone(base.SF), TF: slices.Clone(base.TF)}
	oneBit.SF[1].Sev = cps.Severity(math.Nextafter(1, 2))
	// The same key/severity word sequence with SF one entry shorter.
	shifted := &cluster.Cluster{
		SF: sf(cluster.Entry[cps.SensorID]{Key: 1, Sev: 1}),
		TF: tf(cluster.Entry[cps.Window]{Key: 2, Sev: 1}, cluster.Entry[cps.Window]{Key: 3, Sev: 2}),
	}
	for _, tc := range []struct {
		name string
		c    *cluster.Cluster
	}{{"one severity bit", oneBit}, {"SF/TF boundary", shifted}} {
		if clusterFP(tc.c) == clusterFP(base) {
			t.Errorf("%s: fingerprints collide", tc.name)
		}
	}
}

// atyp_sub_group_micros records the size of the group each in-scope offer
// re-integrates, and nothing for a micro out of scope.
func TestGroupMicrosHistogram(t *testing.T) {
	e := newEnv(30)
	reg := e.registry(t, 0, 8)
	o := obs.NewRegistry()
	reg.SetObserver(o)
	if _, err := reg.Register(e.cityQuery(1, 1e-9), query.All); err != nil {
		t.Fatal(err)
	}
	var g cluster.IDGen
	offer := func(sensor, window int) {
		reg.Offer(cluster.FromRecords(g.Next(), []cps.Record{
			{Sensor: cps.SensorID(sensor), Window: cps.Window(window), Severity: 3},
		}))
	}
	offer(0, 1)                   // a group of 1
	offer(0, 1)                   // same sensor and window: the group grows to 2
	offer(5, 40)                  // shares neither: a new group of 1
	offer(0, 3*e.spec.PerDay()+1) // day 3 is out of the 1-day scope
	h := o.Histogram("atyp_sub_group_micros", "", nil).Snapshot()
	// Buckets are 1, 2, 4, ...: two groups of 1, one of 2.
	if h.Count != 3 || h.Counts[0] != 2 || h.Counts[1] != 1 {
		t.Errorf("group sizes: %d observations, buckets %v; want 3, two of 1 and one of 2", h.Count, h.Counts)
	}
}
