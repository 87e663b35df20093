package forest

import (
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

func opts() cluster.IntegrateOptions {
	return cluster.IntegrateOptions{SimThreshold: 0.5, Balance: cluster.Arithmetic}
}

// dayMicro builds a micro-cluster recurring at the same sensors each day —
// the recurrence that should integrate across days.
func dayMicro(g *cluster.IDGen, spec cps.WindowSpec, day int, baseSensor int, n int) *cluster.Cluster {
	perDay := cps.Window(spec.PerDay())
	// Distinct sensor groups also get distinct window offsets so that
	// unrelated events are neither spatially nor temporally similar.
	offset := cps.Window(100 + (baseSensor/100)%100)
	var recs []cps.Record
	for k := 0; k < n; k++ {
		recs = append(recs, cps.Record{
			Sensor:   cps.SensorID(baseSensor + k),
			Window:   cps.Window(day)*perDay + offset + cps.Window(k),
			Severity: 4,
		})
	}
	return cluster.FromRecords(g.Next(), recs)
}

func buildForest(t *testing.T, days int) (*Forest, *cluster.IDGen) {
	t.Helper()
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, opts(), 30)
	for d := 0; d < days; d++ {
		// Two recurring events per day at separated sensor ranges.
		f.AddDay(d, []*cluster.Cluster{
			dayMicro(&g, spec, d, 0, 5),
			dayMicro(&g, spec, d, 1000, 5),
		})
	}
	return f, &g
}

func TestAddDayAndDays(t *testing.T) {
	f, _ := buildForest(t, 3)
	if got := f.Days(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("Days = %v", got)
	}
	if len(f.Day(1)) != 2 {
		t.Errorf("Day(1) = %d clusters", len(f.Day(1)))
	}
	if f.Day(99) != nil {
		t.Error("missing day should be nil")
	}
	st := f.Stats()
	if st.Days != 3 || st.MicroTotal != 6 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestMicrosInRange(t *testing.T) {
	f, _ := buildForest(t, 10)
	spec := cps.DefaultSpec()
	got := f.MicrosInRange(cps.DayRange(spec, 2, 3))
	if len(got) != 6 {
		t.Errorf("MicrosInRange = %d, want 6 (3 days × 2)", len(got))
	}
	if len(f.MicrosInRange(cps.DayRange(spec, 50, 5))) != 0 {
		t.Error("out-of-range should be empty")
	}
}

func TestWeekIntegratesRecurringEvents(t *testing.T) {
	f, _ := buildForest(t, 7)
	week := f.Week(0)
	// The daily micro-clusters are spatially identical; whether days
	// integrate depends on temporal overlap — here the windows are
	// disjoint across days, so spatial sim 1 and temporal sim 0 gives
	// similarity 0.5, not above the 0.5 threshold: clusters stay per-day.
	if len(week) != 14 {
		t.Errorf("week clusters = %d, want 14 (no temporal overlap)", len(week))
	}
	// With a looser threshold, the recurring events collapse to 2.
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	loose := New(spec, &g, cluster.IntegrateOptions{SimThreshold: 0.4, Balance: cluster.Arithmetic}, 30)
	for d := 0; d < 7; d++ {
		loose.AddDay(d, []*cluster.Cluster{
			dayMicro(&g, spec, d, 0, 5),
			dayMicro(&g, spec, d, 1000, 5),
		})
	}
	week = loose.Week(0)
	if len(week) != 2 {
		t.Fatalf("loose week clusters = %d, want 2", len(week))
	}
	for _, c := range week {
		if c.Micros != 7 {
			t.Errorf("weekly macro integrates %d micros, want 7", c.Micros)
		}
	}
}

func TestWeekMemoizationAndInvalidation(t *testing.T) {
	f, g := buildForest(t, 7)
	w1 := f.Week(0)
	w2 := f.Week(0)
	if &w1[0] != &w2[0] {
		t.Error("Week should memoize")
	}
	// Adding a day to week 0 invalidates the cache.
	spec := cps.DefaultSpec()
	f.AddDay(3, []*cluster.Cluster{dayMicro(g, spec, 3, 2000, 3)})
	w3 := f.Week(0)
	total := 0
	for _, c := range w3 {
		total += c.Micros
	}
	if total != 13 { // 6 days × 2 + 1 replaced day × 1
		t.Errorf("after invalidation micros = %d, want 13", total)
	}
}

func TestMonthBuildsOnWeeks(t *testing.T) {
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, cluster.IntegrateOptions{SimThreshold: 0.3, Balance: cluster.Arithmetic}, 14)
	for d := 0; d < 14; d++ {
		f.AddDay(d, []*cluster.Cluster{dayMicro(&g, spec, d, 0, 5)})
	}
	month := f.Month(0)
	if len(month) != 1 {
		t.Fatalf("month clusters = %d, want 1", len(month))
	}
	if month[0].Micros != 14 {
		t.Errorf("month integrates %d micros, want 14", month[0].Micros)
	}
	// Weeks are cached as a side effect.
	if f.Stats().WeeksCached != 2 {
		t.Errorf("weeks cached = %d", f.Stats().WeeksCached)
	}
}

func TestSeverityConservedAcrossLevels(t *testing.T) {
	f, _ := buildForest(t, 14)
	var microSev, weekSev cps.Severity
	for d := 0; d < 14; d++ {
		for _, c := range f.Day(d) {
			microSev += c.Severity()
		}
	}
	for w := 0; w < 2; w++ {
		for _, c := range f.Week(w) {
			weekSev += c.Severity()
		}
	}
	if microSev != weekSev {
		t.Errorf("severity not conserved: micro %v, week %v", microSev, weekSev)
	}
}

func TestWeekdayWeekendPath(t *testing.T) {
	// Days 0-4 are weekdays of week 0, 5-6 weekend, 7-11 weekdays of week 1.
	if b, ok := WeekdayWeekendPath(3); !ok || b != 0 {
		t.Errorf("day 3 -> %d", b)
	}
	if b, ok := WeekdayWeekendPath(5); !ok || b != 1 {
		t.Errorf("day 5 -> %d", b)
	}
	if b, ok := WeekdayWeekendPath(8); !ok || b != 2 {
		t.Errorf("day 8 -> %d", b)
	}
}

func TestIntegratePath(t *testing.T) {
	f, _ := buildForest(t, 7)
	buckets := f.IntegratePath(WeekdayWeekendPath)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2 (weekday + weekend)", len(buckets))
	}
	microCount := 0
	for _, cs := range buckets {
		for _, c := range cs {
			microCount += c.Micros
		}
	}
	if microCount != 14 {
		t.Errorf("path covers %d micros, want 14", microCount)
	}
	// Excluding days via ok=false drops them.
	onlyDayZero := f.IntegratePath(func(d int) (int, bool) { return 0, d == 0 })
	count := 0
	for _, cs := range onlyDayZero {
		for _, c := range cs {
			count += c.Micros
		}
	}
	if count != 2 {
		t.Errorf("filtered path covers %d micros, want 2", count)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f, _ := buildForest(t, 5)
	dir := t.TempDir()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	var g2 cluster.IDGen
	loaded, _, err := Load(dir, cps.DefaultSpec(), &g2, opts(), 30, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Days()) != 5 {
		t.Fatalf("loaded days = %d", len(loaded.Days()))
	}
	var maxID cluster.ID
	for _, d := range loaded.Days() {
		orig, got := f.Day(d), loaded.Day(d)
		if len(orig) != len(got) {
			t.Fatalf("day %d: %d vs %d clusters", d, len(orig), len(got))
		}
		for i := range orig {
			if orig[i].ID != got[i].ID || orig[i].Severity() != got[i].Severity() {
				t.Errorf("day %d cluster %d: loaded %v, saved %v", d, i, got[i], orig[i])
			}
			maxID = max(maxID, got[i].ID)
		}
	}
	// Fresh merges must not reuse a loaded ID.
	if id := g2.Next(); id <= maxID {
		t.Errorf("generator after load issued %d, want above the loaded maximum %d", id, maxID)
	}
}

func TestLoadMissingDir(t *testing.T) {
	var g cluster.IDGen
	if _, _, err := Load("/nonexistent/forest", cps.DefaultSpec(), &g, opts(), 30, LoadOptions{}); err == nil {
		t.Error("missing dir should error")
	}
}

func TestNewPanicsOnBadMonth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var g cluster.IDGen
	New(cps.DefaultSpec(), &g, opts(), 0)
}

func TestSaveLoadMemoizedLevels(t *testing.T) {
	f, _ := buildForest(t, 14)
	// Memoize a week and the month before saving.
	week0 := f.Week(0)
	dir := t.TempDir()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	var g2 cluster.IDGen
	loaded, _, err := Load(dir, cps.DefaultSpec(), &g2, opts(), 30, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().WeeksCached != 1 {
		t.Fatalf("loaded weeks cached = %d, want 1", loaded.Stats().WeeksCached)
	}
	// The cached week is served without re-integration and matches.
	got := loaded.Week(0)
	if len(got) != len(week0) {
		t.Fatalf("loaded week clusters = %d, want %d", len(got), len(week0))
	}
	var wantSev, gotSev cps.Severity
	for i := range week0 {
		wantSev += week0[i].Severity()
		gotSev += got[i].Severity()
	}
	if wantSev != gotSev {
		t.Errorf("loaded week severity %v, want %v", gotSev, wantSev)
	}
	// Un-memoized week 1 is still computable from the loaded days.
	if len(loaded.Week(1)) == 0 {
		t.Error("week 1 not recomputable after load")
	}
}
