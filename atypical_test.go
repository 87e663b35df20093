package atypical

import (
	"context"
	"strings"
	"testing"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Sensors = 250
	cfg.DaysPerMonth = 7
	return cfg
}

// mustIngest ingests rs through IngestCtx, failing the test if the record
// set is rejected.
func mustIngest(t testing.TB, sys *System, rs *RecordSet) {
	t.Helper()
	if err := sys.IngestCtx(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
}

// mustIngestMonths generates and ingests months [0, n) through
// IngestMonthsCtx, failing the test if a month is rejected.
func mustIngestMonths(t testing.TB, sys *System, n int) []*Dataset {
	t.Helper()
	out, err := sys.IngestMonthsCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewSystemValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Sensors = 0 },
		func(c *Config) { c.DeltaD = 0 },
		func(c *Config) { c.DeltaT = 0 },
		func(c *Config) { c.SimThreshold = 0 },
		func(c *Config) { c.SimThreshold = 1.5 },
		func(c *Config) { c.DaysPerMonth = 0 },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewSystem(testConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Network().NumSensors() == 0 {
		t.Fatal("no sensors")
	}
	datasets := mustIngestMonths(t, sys, 1)
	if len(datasets) != 1 || datasets[0].Atypical.Len() == 0 {
		t.Fatal("no workload generated")
	}
	if sys.Forest().Stats().MicroTotal == 0 {
		t.Fatal("no micro-clusters in the forest")
	}

	all := mustRun(t, sys, QueryRequest{Days: 7})
	gui := mustRun(t, sys, QueryRequest{Days: 7, Strategy: Guided})
	pru := mustRun(t, sys, QueryRequest{Days: 7, Strategy: Pruned})

	if all.InputMicros == 0 {
		t.Fatal("All saw no inputs")
	}
	if gui.InputMicros > all.InputMicros || pru.InputMicros > all.InputMicros {
		t.Error("pruning strategies must not see more inputs than All")
	}
	// Guided retrieves every significant cluster All finds.
	for _, want := range all.Significant {
		found := false
		for _, got := range gui.Significant {
			if Similarity(want, got, 0 /* Arithmetic */) >= 0.5 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Guided missed a significant cluster")
		}
	}
}

func TestDescribe(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustIngestMonths(t, sys, 1)
	res := mustRun(t, sys, QueryRequest{Days: 7})
	if len(res.Macros) == 0 {
		t.Fatal("no clusters to describe")
	}
	desc := sys.Describe(res.Macros[0])
	for _, needle := range []string{"cluster", "sensors", "most serious on"} {
		if !strings.Contains(desc, needle) {
			t.Errorf("Describe missing %q: %s", needle, desc)
		}
	}
	empty := &Cluster{ID: 7}
	if got := sys.Describe(empty); !strings.Contains(got, "empty") {
		t.Errorf("empty describe = %q", got)
	}
}

func TestQueryBoxNarrowsScope(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustIngestMonths(t, sys, 1)
	city := mustRun(t, sys, QueryRequest{Days: 7})
	half := sys.Network().Grid.Box
	half.Max.Lat = (half.Min.Lat + half.Max.Lat) / 2
	box := mustRun(t, sys, QueryRequest{Box: &half, Days: 7})
	if box.CandidateMicros > city.CandidateMicros {
		t.Errorf("box candidates %d > city %d", box.CandidateMicros, city.CandidateMicros)
	}
}

func TestIngestIsIncremental(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	// Ingest the same records twice: days gain clusters, nothing is lost.
	mustIngest(t, sys, ds.Atypical)
	first := sys.Forest().Stats().MicroTotal
	mustIngest(t, sys, ds.Atypical)
	second := sys.Forest().Stats().MicroTotal
	if second != 2*first {
		t.Errorf("double ingest micros = %d, want %d", second, 2*first)
	}
}

func TestGenerateMonthDeterministic(t *testing.T) {
	sys1, _ := NewSystem(testConfig())
	sys2, _ := NewSystem(testConfig())
	a := sys1.GenerateMonth(2)
	b := sys2.GenerateMonth(2)
	if a.Atypical.Len() != b.Atypical.Len() {
		t.Error("generation should be deterministic across systems with equal config")
	}
}

func TestRankingAndExplicitScope(t *testing.T) {
	sys, err := NewSystem(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustIngestMonths(t, sys, 1)
	res := mustRun(t, sys, QueryRequest{Days: 7})
	if len(res.Significant) == 0 {
		t.Skip("no significant clusters on this seed")
	}
	out := sys.Ranking(res.Significant)
	if !strings.Contains(out, "1.") || !strings.Contains(out, "most serious on") {
		t.Errorf("Ranking output: %q", out)
	}

	// Run accepts a custom δs on an explicit region/window scope.
	win := DayRange(sys.Spec(), 0, 7)
	var regions []RegionID
	for _, r := range sys.Network().Grid.Regions() {
		regions = append(regions, r.ID)
	}
	loose := mustRun(t, sys, QueryRequest{Regions: regions, Window: &win, DeltaS: 0.001})
	if len(loose.Significant) < len(res.Significant) {
		t.Errorf("looser δs found fewer significant clusters: %d < %d",
			len(loose.Significant), len(res.Significant))
	}
}
