package atypical

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/storage"
)

// Ingest is where records and clusters enter the system, so it holds them to
// cluster.Feature.Valid's rule, which integration relies on without checking,
// and to the deployment, whose Network.Sensor lookups would otherwise index
// past the end: a record set or cluster batch holding a sensor outside the
// deployment or a severity that is not finite and positive, or an event
// whose records sum one feature entry to +Inf, is rejected whole and stores
// nothing. RebuildSeverity shares IngestCtx's record check; the stream
// processor and LoadForest refuse the outside sensor too.
func TestIngestRejectsInvalidSeverities(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	outside := SensorID(sys.Network().NumSensors() + 5)
	badSets := map[string]*RecordSet{
		"sensor outside the deployment": NewRecordSet([]Record{{Sensor: 1, Window: 3, Severity: 1}, {Sensor: outside, Window: 3, Severity: 1}}),
	}
	for _, sev := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		badSets[fmt.Sprintf("record severity %v", sev)] = NewRecordSet([]Record{{Sensor: 1, Window: 3, Severity: 1}, {Sensor: 2, Window: 40, Severity: Severity(sev)}})
	}
	for name, rs := range badSets {
		if err := sys.IngestCtx(ctx, rs); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: IngestCtx = %v, want ErrInvalidConfig", name, err)
		}
		if err := sys.RebuildSeverity(ctx, rs); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: RebuildSeverity = %v, want ErrInvalidConfig", name, err)
		}
	}
	huge := Severity(math.MaxFloat64)
	overflow := NewRecordSet([]Record{{Sensor: 1, Window: 3, Severity: huge}, {Sensor: 1, Window: 4, Severity: huge}})
	if err := sys.IngestCtx(ctx, overflow); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("event summing to +Inf: IngestCtx = %v, want ErrInvalidConfig", err)
	}

	var g cluster.IDGen
	good := cluster.FromRecords(g.Next(), []Record{{Sensor: 1, Window: 3, Severity: 1}})
	far := cluster.FromRecords(g.Next(), []Record{{Sensor: outside, Window: 3, Severity: 1}})
	for name, bad := range map[string]*Cluster{
		"nil":            nil,
		"nan":            {ID: g.Next(), Micros: 1, SF: cluster.SpatialFeature{{Key: 1, Sev: Severity(math.NaN())}}, TF: cluster.TemporalFeature{{Key: 3, Sev: 1}}},
		"zero":           {ID: g.Next(), Micros: 1, SF: cluster.SpatialFeature{{Key: 1, Sev: 1}}, TF: cluster.TemporalFeature{{Key: 3, Sev: 0}}},
		"unsorted":       {ID: g.Next(), Micros: 1, SF: cluster.SpatialFeature{{Key: 2, Sev: 1}, {Key: 1, Sev: 1}}, TF: cluster.TemporalFeature{{Key: 3, Sev: 2}}},
		"no micros":      {ID: g.Next(), SF: cluster.SpatialFeature{{Key: 1, Sev: 1}}, TF: cluster.TemporalFeature{{Key: 3, Sev: 1}}},
		"max int micros": {ID: g.Next(), Micros: math.MaxInt, SF: cluster.SpatialFeature{{Key: 1, Sev: 1}}, TF: cluster.TemporalFeature{{Key: 3, Sev: 1}}},
		"outside sensor": far,
	} {
		if err := sys.IngestClusters([]*Cluster{good, bad}); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s cluster: IngestClusters = %v, want ErrInvalidConfig", name, err)
		}
	}
	if days := sys.Forest().Days(); len(days) != 0 {
		t.Fatalf("rejected ingests stored days %v", days)
	}

	// With a subscription active, the system's stream processor refuses the
	// outside sensor before the evaluator looks it up.
	sub, err := sys.Subscribe(QueryRequest{Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewStreamProcessor(func(*Cluster) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range badSets["sensor outside the deployment"].Records() {
		err = p.Observe(r)
	}
	if err == nil || p.Observed() != 1 {
		t.Errorf("stream processor: Observe = %v after %d records; want the outside sensor refused", err, p.Observed())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	sys.Unsubscribe(sub.ID())

	// A larger deployment saves a cluster this one cannot place: the load
	// fails like a corrupt file, and a recovering load quarantines it.
	bigCfg := testConfig()
	bigCfg.Sensors *= 2
	big, err := NewSystem(bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.IngestClusters([]*Cluster{far}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := big.SaveForest(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadForest(dir); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("LoadForest = %v, want storage.ErrCorrupt", err)
	}
	if rep, err := sys.LoadForestRecover(dir); !errors.Is(err, ErrSeverityStale) || len(rep.Quarantined) != 1 {
		t.Errorf("LoadForestRecover = %+v, %v; want one quarantined file", rep, err)
	}

	if err := sys.IngestClusters([]*Cluster{good}); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
	if days := sys.Forest().Days(); len(days) != 1 {
		t.Fatalf("valid cluster stored days %v, want one", days)
	}
}

func TestStreamProcessorThroughFacade(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)

	var streamed []*Cluster
	p, err := sys.NewStreamProcessor(func(c *Cluster) { streamed = append(streamed, c) })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Atypical.Records() {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatal("no clusters streamed")
	}

	// Streaming + IngestClusters carries the same severity as batch
	// Ingest. Micro counts differ slightly by design: the batch pipeline
	// splits events at midnight (per-day materialization), the stream
	// keeps overnight events whole.
	if err := sys.IngestClusters(streamed); err != nil {
		t.Fatal(err)
	}
	var streamSev Severity
	for _, day := range sys.Forest().Days() {
		for _, c := range sys.Forest().Day(day) {
			streamSev += c.Severity()
		}
	}
	sys2, _ := NewSystem(testConfig())
	mustIngest(t, sys2, sys2.GenerateMonth(0).Atypical)
	var batchSev Severity
	for _, day := range sys2.Forest().Days() {
		for _, c := range sys2.Forest().Day(day) {
			batchSev += c.Severity()
		}
	}
	if d := float64(streamSev - batchSev); d > 1e-6 || d < -1e-6 {
		t.Errorf("stream severity %v != batch severity %v", streamSev, batchSev)
	}
	if streamMicros, batchMicros := sys.Forest().Stats().MicroTotal, sys2.Forest().Stats().MicroTotal; streamMicros > batchMicros {
		t.Errorf("stream produced more micros (%d) than the midnight-splitting batch (%d)", streamMicros, batchMicros)
	}
}

func TestTrainPredictorThroughFacade(t *testing.T) {
	cfg := testConfig()
	cfg.DaysPerMonth = 14
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustIngestMonths(t, sys, 1)

	m, err := sys.TrainPredictor(0, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Patterns()) == 0 {
		t.Fatal("no patterns learned")
	}
	top := m.TopSensors(20)
	if len(top) != 20 {
		t.Fatalf("top sensors = %d", len(top))
	}
	// The forecast should score well on a held-out weekday.
	byDay := sys.GenerateMonth(0).Atypical.SplitByDay(sys.Spec())
	out := m.Evaluate(byDay[10], 30)
	if out.PrecisionAtK < 0.5 {
		t.Errorf("precision@30 = %.2f on recurring workload", out.PrecisionAtK)
	}

	if _, err := sys.TrainPredictor(0, 0, 0); err == nil {
		t.Error("zero-day training accepted")
	}
	if _, err := sys.TrainPredictor(500, 5, 0); err == nil {
		t.Error("empty range accepted")
	}
}

func TestTrustThroughFacade(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	scores, err := sys.TrustScores(ds.Atypical)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	// Filtering at an impossible threshold removes everything scored;
	// at zero it removes nothing.
	kept := sys.FilterUntrusted(ds.Atypical, scores, 0)
	if kept.Len() != ds.Atypical.Len() {
		t.Errorf("zero threshold removed records: %d of %d", kept.Len(), ds.Atypical.Len())
	}
	none := sys.FilterUntrusted(ds.Atypical, scores, 1.1)
	if none.Len() != 0 {
		t.Errorf("impossible threshold kept %d records", none.Len())
	}
}

func TestForestPersistenceThroughFacade(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	mustIngest(t, sys, ds.Atypical)
	want := sys.Forest().Stats()
	dir := t.TempDir()
	if err := sys.SaveForest(dir); err != nil {
		t.Fatal(err)
	}

	sys2, _ := NewSystem(testConfig())
	// The severity index is not persisted, so a successful load still reports
	// staleness through the sentinel.
	if err := sys2.LoadForest(dir); !errors.Is(err, ErrSeverityStale) {
		t.Fatalf("LoadForest error = %v, want ErrSeverityStale", err)
	}
	got := sys2.Forest().Stats()
	if got.Days != want.Days || got.MicroTotal != want.MicroTotal {
		t.Errorf("loaded stats %+v, want %+v", got, want)
	}
	// All-strategy queries never consult the severity index and work while
	// it is stale; Guided ones are refused until a rebuild.
	res := mustRun(t, sys2, QueryRequest{Days: 7})
	if res.CandidateMicros == 0 {
		t.Error("loaded forest served no candidates")
	}
	if _, err := sys2.Run(context.Background(), QueryRequest{Days: 7, Strategy: Guided}); !errors.Is(err, ErrSeverityStale) {
		t.Errorf("Guided query on stale index error = %v, want ErrSeverityStale", err)
	}
	if err := sys2.RebuildSeverity(context.Background(), ds.Atypical); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(context.Background(), QueryRequest{Days: 7, Strategy: Guided}); err != nil {
		t.Errorf("Guided query after RebuildSeverity: %v", err)
	}

	// LoadForestAndRebuild restores full function in one call.
	sys3, _ := NewSystem(testConfig())
	if err := sys3.LoadForestAndRebuild(context.Background(), dir, ds.Atypical); err != nil {
		t.Fatal(err)
	}
	g1 := mustRun(t, sys2, QueryRequest{Days: 7, Strategy: Guided})
	g3 := mustRun(t, sys3, QueryRequest{Days: 7, Strategy: Guided})
	if g1.RedZones != g3.RedZones || len(g1.Significant) != len(g3.Significant) {
		t.Errorf("rebuild paths disagree: %d/%d zones, %d/%d significant",
			g1.RedZones, g3.RedZones, len(g1.Significant), len(g3.Significant))
	}

	if err := sys2.LoadForest("/nonexistent"); err == nil || errors.Is(err, ErrSeverityStale) {
		t.Errorf("missing dir error = %v, want a plain load failure", err)
	}
}

// A system that loads a saved forest must not hand out a loaded cluster's
// ID to a fresh macro: the answer of an All query over the loaded micros
// carries every ID once.
func TestLoadForestAnswerIDsUnique(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustIngestMonths(t, sys, 1)
	dir := t.TempDir()
	if err := sys.SaveForest(dir); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadForest(dir); !errors.Is(err, ErrSeverityStale) {
		t.Fatalf("LoadForest error = %v, want ErrSeverityStale", err)
	}
	res := mustRun(t, fresh, QueryRequest{Days: 28})
	seen := make(map[cluster.ID]bool, len(res.Macros))
	dups := 0
	for _, c := range res.Macros {
		if seen[c.ID] {
			dups++
		}
		seen[c.ID] = true
	}
	if dups != 0 {
		t.Errorf("%d of %d macros reuse an ID", dups, len(res.Macros))
	}
}
