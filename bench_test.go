// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations for the design choices DESIGN.md calls out. The full
// parameter sweeps live in cmd/atypbench; these benches measure the unit
// cost of each figure's inner loop so regressions show up in -bench runs.
package atypical_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/detect"
	"github.com/cpskit/atypical/internal/eval"
	"github.com/cpskit/atypical/internal/experiments"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/obs/flight"
	"github.com/cpskit/atypical/internal/predict"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/storage"
	"github.com/cpskit/atypical/internal/stream"
	"github.com/cpskit/atypical/internal/traffic"
	"github.com/cpskit/atypical/internal/trust"
)

// fixture is the shared bench deployment: one 14-day month on a ~350-sensor
// network, with per-day micro-clusters and the query stack prebuilt.
type fixture struct {
	net       *traffic.Network
	spec      cps.WindowSpec
	ds        *gen.Dataset
	locs      []geo.Point
	neighbors [][]cps.SensorID
	maxGap    int
	opts      cluster.IntegrateOptions
	micros    []*cluster.Cluster
	engine    *query.Engine
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func benchFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		net := traffic.GenerateNetwork(traffic.ScaledConfig(250))
		spec := cps.DefaultSpec()
		cfg := gen.DefaultConfig(net)
		cfg.DaysPerMonth = 14
		g, err := gen.New(cfg)
		if err != nil {
			panic(err)
		}
		ds := g.Month(0)
		locs := make([]geo.Point, net.NumSensors())
		for i, s := range net.Sensors {
			locs[i] = s.Loc
		}
		f := &fixture{
			net:       net,
			spec:      spec,
			ds:        ds,
			locs:      locs,
			neighbors: index.NewNeighborIndex(locs, 1.5).NeighborLists(),
			maxGap:    cluster.MaxWindowGap(15*time.Minute, spec.Width),
			opts: cluster.IntegrateOptions{
				SimThreshold: 0.5,
				Balance:      cluster.Arithmetic,
				Period:       cps.Window(spec.PerDay()),
			},
		}
		var idgen cluster.IDGen
		fr := forest.New(spec, &idgen, f.opts, 14)
		// Ascending days, so every process benchmarks the same micro-clusters
		// (f.micros[:400], the pair BenchmarkMergeClusters merges).
		cps.ForEachDay(ds.Atypical.SplitByDay(spec), func(day int, recs []cps.Record) {
			micros := cluster.ExtractMicroClusters(&idgen, recs, f.neighbors, f.maxGap)
			f.micros = append(f.micros, micros...)
			fr.AddDay(day, micros)
		})
		sev := cube.NewSeverityIndex(net, spec)
		sev.Add(ds.Atypical.Records())
		f.engine = &query.Engine{Net: net, Forest: fr, Severity: sev, Gen: &idgen}
		fix = f
	})
	return fix
}

// --- Fig. 15: model construction cost per dataset ---

func BenchmarkFig15ConstructionPR(b *testing.B) {
	f := benchFixture(b)
	for i := 0; i < b.N; i++ {
		rs, _ := detect.Scan(f.ds.ForEachReading)
		if rs.Len() == 0 {
			b.Fatal("no atypical records")
		}
	}
}

func BenchmarkFig15ConstructionOC(b *testing.B) {
	f := benchFixture(b)
	for i := 0; i < b.N; i++ {
		oc := cube.NewCubeView(f.net, f.spec, 14, nil)
		f.ds.ForEachReading(oc.AddReading)
	}
}

func BenchmarkFig15ConstructionMC(b *testing.B) {
	f := benchFixture(b)
	recs := f.ds.Atypical.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := cube.NewCubeView(f.net, f.spec, 14, nil)
		for _, r := range recs {
			mc.AddRecord(r)
		}
	}
}

func BenchmarkFig15ConstructionAC(b *testing.B) {
	f := benchFixture(b)
	days := f.ds.Atypical.SplitByDay(f.spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		for _, recs := range days {
			cluster.ExtractMicroClusters(&idgen, recs, f.neighbors, f.maxGap)
		}
	}
}

// BenchmarkFig15ConstructionACParallel is the AC curve on the parallel
// pipeline: per-day extraction fanned out over a worker pool. At 4+ cores
// this should run ≥2× faster than BenchmarkFig15ConstructionAC while
// producing byte-identical clusters (IDs included).
func benchConstructionACParallel(b *testing.B, workers int) {
	f := benchFixture(b)
	byDay := f.ds.Atypical.SplitByDay(f.spec)
	var days []cluster.DayRecords
	cps.ForEachDay(byDay, func(day int, recs []cps.Record) {
		days = append(days, cluster.DayRecords{Day: day, Records: recs})
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		if _, err := cluster.ExtractMicroClustersDays(context.Background(), &idgen, days, f.neighbors, f.maxGap, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15ConstructionACParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchConstructionACParallel(b, workers)
		})
	}
}

// --- Fig. 16: model sizes (reported as metrics on the encoders) ---

func BenchmarkFig16ModelSizeAC(b *testing.B) {
	f := benchFixture(b)
	var size int64
	for i := 0; i < b.N; i++ {
		size = storage.ClustersSize(f.micros)
	}
	b.ReportMetric(float64(size)/1024, "KB")
}

func BenchmarkFig16ModelSizeAE(b *testing.B) {
	f := benchFixture(b)
	var size int64
	for i := 0; i < b.N; i++ {
		size = storage.RecordsSize(f.ds.Atypical.Records())
	}
	b.ReportMetric(float64(size)/1024, "KB")
}

// --- Fig. 17: query cost per strategy ---

func benchQuery(b *testing.B, s query.Strategy) {
	f := benchFixture(b)
	q := query.CityQuery(f.net, f.spec, 0, 14, 0.02)
	var inputs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.engine.RunCtx(context.Background(), q, s)
		if err != nil {
			b.Fatal(err)
		}
		inputs = res.InputMicros
	}
	b.ReportMetric(float64(inputs), "inputs")
}

func BenchmarkFig17QueryAll(b *testing.B) { benchQuery(b, query.All) }
func BenchmarkFig17QueryPru(b *testing.B) { benchQuery(b, query.Pru) }
func BenchmarkFig17QueryGui(b *testing.B) { benchQuery(b, query.Gui) }

// BenchmarkObsOverheadQuery measures the cost of the observability hooks on
// the Pruned query path — the fastest strategy, so instrumentation overhead
// is largest relative to the work. "off" is the shipped default (obs
// compiled in, every handle nil); "on" records into a live registry;
// "explain" additionally arms a per-query Explain collector on the context
// (the EXPLAIN side-channel, priced per query rather than per system);
// "recorder" arms the flight recorder the way the facade does — a wide
// event per query, filled by the engine's stage recorder and recorded into
// a sampling ring. The DESIGN.md zero-overhead claim is that off stays
// within noise of the pre-instrumentation engine and on stays within a few
// percent; explain and recorder are allowed to cost more — both are opt-in
// per request/deployment — but must stay within the same order of
// magnitude.
func BenchmarkObsOverheadQuery(b *testing.B) {
	f := benchFixture(b)
	q := query.CityQuery(f.net, f.spec, 0, 14, 0.02)
	run := func(b *testing.B, m *query.Metrics, explain bool, rec *flight.Recorder) {
		engine := &query.Engine{
			Net: f.engine.Net, Forest: f.engine.Forest, Severity: f.engine.Severity,
			Gen: f.engine.Gen, Obs: m,
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			var ev *flight.Event
			if rec != nil {
				ctx, ev = flight.WithEvent(ctx)
			}
			if explain {
				ctx, _ = query.WithExplain(ctx)
			}
			if _, err := engine.RunCtx(ctx, q, query.Pru); err != nil {
				b.Fatal(err)
			}
			rec.Record(ev) // nil-safe; no-op for the other variants
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, false, nil) })
	b.Run("on", func(b *testing.B) { run(b, query.NewMetrics(obs.NewRegistry()), false, nil) })
	b.Run("explain", func(b *testing.B) { run(b, nil, true, nil) })
	b.Run("recorder", func(b *testing.B) {
		run(b, nil, false, flight.NewRecorder(flight.Config{Entries: 256, SampleEvery: 1}))
	})
}

// --- Fig. 18/19: precision-recall scoring path ---

func BenchmarkFig18Scoring(b *testing.B) {
	f := benchFixture(b)
	q := query.CityQuery(f.net, f.spec, 0, 14, 0.02)
	all, err := f.engine.RunCtx(context.Background(), q, query.All)
	if err != nil {
		b.Fatal(err)
	}
	gui, err := f.engine.RunCtx(context.Background(), q, query.Gui)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := eval.Score(gui.Macros, all.Significant, all.Bound, cluster.Arithmetic)
		if pr.Recall < 0 {
			b.Fatal("impossible recall")
		}
	}
}

// --- Fig. 20: extraction under threshold variants ---

func benchExtractDeltaT(b *testing.B, deltaT time.Duration) {
	f := benchFixture(b)
	maxGap := cluster.MaxWindowGap(deltaT, f.spec.Width)
	day0 := f.ds.Atypical.SplitByDay(f.spec)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		cluster.ExtractMicroClusters(&idgen, day0, f.neighbors, maxGap)
	}
}

func BenchmarkFig20ExtractDeltaT15(b *testing.B) { benchExtractDeltaT(b, 15*time.Minute) }
func BenchmarkFig20ExtractDeltaT80(b *testing.B) { benchExtractDeltaT(b, 80*time.Minute) }

// --- Fig. 21: integration per balance function ---

func benchIntegrateBalance(b *testing.B, g cluster.Balance) {
	f := benchFixture(b)
	opts := f.opts
	opts.Balance = g
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		cluster.Integrate(&idgen, f.micros, opts)
	}
}

func BenchmarkFig21IntegrateMin(b *testing.B) { benchIntegrateBalance(b, cluster.Min) }
func BenchmarkFig21IntegrateAvg(b *testing.B) { benchIntegrateBalance(b, cluster.Arithmetic) }
func BenchmarkFig21IntegrateMax(b *testing.B) { benchIntegrateBalance(b, cluster.Max) }
func BenchmarkFig21IntegrateGeo(b *testing.B) { benchIntegrateBalance(b, cluster.Geometric) }

// Under Harmonic integrateCore's frontier walk restarts after every merge
// (its balance is not shown monotone in floating point), so this row prices
// the kernel with the rejection skip off.
func BenchmarkFig21IntegrateHar(b *testing.B) { benchIntegrateBalance(b, cluster.Harmonic) }

// --- Integration over long windows ---

var (
	longOnce sync.Once
	longSys  *atypical.System
)

// longSystem ingests three generated months of the default deployment
// (seed 1), once per process.
func longSystem() *atypical.System {
	longOnce.Do(func() {
		cfg := atypical.DefaultConfig()
		cfg.Seed = 1
		sys, err := atypical.NewSystem(cfg)
		if err != nil {
			panic(err)
		}
		if _, err := sys.IngestMonthsCtx(context.Background(), 3); err != nil {
			panic(err)
		}
		longSys = sys
	})
	return longSys
}

// benchIntegrateLong integrates the city-wide candidate set of the first
// days of longSystem — the inputs an All query over that range integrates.
// Windows spanning months grow the longest merge chains: one group holds
// most of the candidates.
func benchIntegrateLong(b *testing.B, days int) {
	sys := longSystem()
	micros := sys.Forest().MicrosInRange(cps.DayRange(sys.Spec(), 0, days))
	opts := sys.Forest().Options()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		cluster.Integrate(&idgen, micros, opts)
	}
	b.ReportMetric(float64(len(micros)), "inputs")
}

func BenchmarkIntegrateAll28Days(b *testing.B) { benchIntegrateLong(b, 28) }
func BenchmarkIntegrateAll84Days(b *testing.B) { benchIntegrateLong(b, 84) }

// BenchmarkIntegrateSmall integrates 2 and 8 micro-clusters of a 7-day city
// window, the call the standing-query evaluator makes on most arrivals: the
// first ones holding the window's busiest sensor, so they merge. At spread
// 64 every sensor ID is multiplied by 64, a deployment with the same
// clusters and a 64 times wider sensor-ID span; B/op and allocs/op must not
// grow with it.
func BenchmarkIntegrateSmall(b *testing.B) {
	sys := longSystem()
	window := sys.Forest().MicrosInRange(cps.DayRange(sys.Spec(), 0, 7))
	holders := map[cps.SensorID][]*cluster.Cluster{}
	busiest := window[0].SF[0].Key
	for _, c := range window {
		for _, e := range c.SF {
			holders[e.Key] = append(holders[e.Key], c)
			if len(holders[e.Key]) > len(holders[busiest]) {
				busiest = e.Key
			}
		}
	}
	group := holders[busiest]
	opts := sys.Forest().Options()
	for _, size := range []int{2, 8} {
		for _, spread := range []cps.SensorID{1, 64} {
			micros := make([]*cluster.Cluster, size)
			for i, c := range group[:size] {
				sf := make(cluster.SpatialFeature, len(c.SF))
				for j, e := range c.SF {
					sf[j] = cluster.Entry[cps.SensorID]{Key: e.Key * spread, Sev: e.Sev}
				}
				micros[i] = &cluster.Cluster{ID: c.ID, SF: sf, TF: c.TF, Micros: c.Micros}
				micros[i].Hydrate()
			}
			b.Run(fmt.Sprintf("micros=%d/spread=%d", size, spread), func(b *testing.B) {
				b.ReportAllocs()
				var out []*cluster.Cluster
				for i := 0; i < b.N; i++ {
					var idgen cluster.IDGen
					out = cluster.Integrate(&idgen, micros, opts)
				}
				b.ReportMetric(float64(len(out)), "outputs")
			})
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// Event extraction: indexed (Proposition 1 with index) vs brute-force.
func BenchmarkExtractIndexed(b *testing.B) {
	f := benchFixture(b)
	day0 := f.ds.Atypical.SplitByDay(f.spec)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ExtractEvents(day0, f.neighbors, f.maxGap)
	}
}

func BenchmarkExtractBrute(b *testing.B) {
	f := benchFixture(b)
	day0 := f.ds.Atypical.SplitByDay(f.spec)[0]
	if len(day0) > 4000 {
		day0 = day0[:4000] // keep the quadratic oracle affordable
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.ExtractEventsBrute(day0, f.locs, 1.5, f.maxGap)
	}
}

// Integration: posting-list candidates vs the literal quadratic Algorithm 3.
func BenchmarkIntegrateIndexed(b *testing.B) {
	f := benchFixture(b)
	micros := f.micros
	if len(micros) > 400 {
		micros = micros[:400]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		cluster.Integrate(&idgen, micros, f.opts)
	}
}

func BenchmarkIntegrateNaive(b *testing.B) {
	f := benchFixture(b)
	micros := f.micros
	if len(micros) > 400 {
		micros = micros[:400]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		cluster.IntegrateNaive(&idgen, micros, f.opts)
	}
}

// The day-sharded severity build against the serial accumulate loop.
func BenchmarkSeverityAddDays(b *testing.B) {
	f := benchFixture(b)
	byDay := f.ds.Atypical.SplitByDay(f.spec)
	var days [][]cps.Record
	cps.ForEachDay(byDay, func(_ int, recs []cps.Record) {
		days = append(days, recs)
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx := cube.NewSeverityIndex(f.net, f.spec)
				if err := idx.AddDays(context.Background(), days, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Bottom-up severity F(W,T): raw record scan vs per-region rollup index vs
// aggregate R-tree.
func BenchmarkSeverityAggScan(b *testing.B) {
	f := benchFixture(b)
	regions := query.CityQuery(f.net, f.spec, 0, 14, 0.02).Regions
	recs := f.ds.Atypical.Records()
	tr := cps.DayRange(f.spec, 0, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube.FScan(f.net, recs, regions, tr)
	}
}

func BenchmarkSeverityAggRollup(b *testing.B) {
	f := benchFixture(b)
	regions := query.CityQuery(f.net, f.spec, 0, 14, 0.02).Regions
	idx := cube.NewSeverityIndex(f.net, f.spec)
	idx.Add(f.ds.Atypical.Records())
	tr := cps.DayRange(f.spec, 0, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.FTotal(regions, tr)
	}
}

func BenchmarkSeverityAggRTree(b *testing.B) {
	f := benchFixture(b)
	tree := index.NewRTree(f.locs)
	weights := make([]float64, len(f.locs))
	for _, r := range f.ds.Atypical.Records() {
		weights[r.Sensor] += float64(r.Severity)
	}
	box := f.net.Grid.Box
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Aggregate(box, func(id cps.SensorID) float64 { return weights[id] })
	}
}

// Feature merge: the algebraic merge-join at the heart of Algorithm 2.
func BenchmarkMergeClusters(b *testing.B) {
	f := benchFixture(b)
	if len(f.micros) < 2 {
		b.Skip("not enough micro-clusters")
	}
	a, c := f.micros[0], f.micros[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		cluster.Merge(&idgen, a, c)
	}
}

// Storage codec throughput.
func BenchmarkStorageEncodeRecords(b *testing.B) {
	f := benchFixture(b)
	recs := f.ds.Atypical.Records()
	b.SetBytes(int64(len(recs) * 20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.WriteRecords(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// Experiment harness smoke bench: the full small-config suite.
func BenchmarkExperimentSuiteSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := experiments.NewEnv(experiments.Small())
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range experiments.Order {
			experiments.Registry[id](env)
		}
	}
}

// --- Extension subsystems ---

// Streaming event maintenance throughput (records/op reported as bytes for
// throughput display).
func BenchmarkStreamProcessor(b *testing.B) {
	f := benchFixture(b)
	recs := f.ds.Atypical.Records()
	b.SetBytes(int64(len(recs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var idgen cluster.IDGen
		p, err := stream.New(stream.Config{
			Neighbors: f.neighbors,
			MaxGap:    f.maxGap,
			Emit:      func(*cluster.Cluster) {},
		}, &idgen)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := p.Observe(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// Trust scoring over a full month of records.
func BenchmarkTrustScores(b *testing.B) {
	f := benchFixture(b)
	a, err := trust.New(trust.Config{Neighbors: f.neighbors, MaxGap: f.maxGap})
	if err != nil {
		b.Fatal(err)
	}
	recs := f.ds.Atypical.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := a.Scores(recs); len(got) == 0 {
			b.Fatal("no scores")
		}
	}
}

// Prediction training from a fortnight of macro-clusters.
func BenchmarkPredictTrain(b *testing.B) {
	f := benchFixture(b)
	var idgen cluster.IDGen
	macros := cluster.Integrate(&idgen, f.micros, f.opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := predict.Train(macros, predict.Config{TrainingDays: 14, Period: f.spec.PerDay()})
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Patterns()) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// Streaming record decode throughput.
func BenchmarkStorageDecodeStream(b *testing.B) {
	f := benchFixture(b)
	var buf bytes.Buffer
	if _, err := storage.WriteRecords(&buf, f.ds.Atypical.Records()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := storage.NewRecordReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := rr.Next(); !ok {
				break
			}
			n++
		}
		if rr.Err() != nil || n == 0 {
			b.Fatalf("decoded %d records, err %v", n, rr.Err())
		}
	}
}

// Periodic similarity (the integration hot path).
func BenchmarkSimilarityPeriodic(b *testing.B) {
	f := benchFixture(b)
	if len(f.micros) < 2 {
		b.Skip("not enough micros")
	}
	x, y := f.micros[0], f.micros[1]
	period := cps.Window(f.spec.PerDay())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.SimilarityAt(x, y, cluster.Arithmetic, period)
	}
}
