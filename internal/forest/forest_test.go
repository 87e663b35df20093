package forest

import (
	"slices"
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

// Days stored out of order, some appended twice, come back in day order
// from Days and MicrosInRange; a Days snapshot is not changed by a later
// new day, and ranges that clip the stored days return exactly their run.
func TestMicrosInRangeDayOrder(t *testing.T) {
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, opts(), 30)
	ids := map[int][]cluster.ID{}
	for _, d := range []int{5, 1, 3, 1, 8, 5} {
		c := dayMicro(&g, spec, d, 0, 2)
		ids[d] = append(ids[d], c.ID)
		f.AppendDay(d, []*cluster.Cluster{c})
	}
	snap := f.Days()
	f.AddDay(0, []*cluster.Cluster{dayMicro(&g, spec, 0, 0, 2)})
	if !slices.Equal(snap, []int{1, 3, 5, 8}) || !slices.Equal(f.Days(), []int{0, 1, 3, 5, 8}) {
		t.Fatalf("Days snapshot %v, now %v", snap, f.Days())
	}
	for _, tc := range []struct {
		from, n int
		want    []int
	}{{1, 5, []int{1, 3, 5}}, {2, 2, []int{3}}, {4, 10, []int{5, 8}}, {9, 3, nil}, {-3, 2, nil}} {
		var want []cluster.ID
		for _, d := range tc.want {
			want = append(want, ids[d]...)
		}
		var got []cluster.ID
		for _, c := range f.MicrosInRange(cps.DayRange(spec, tc.from, tc.n)) {
			got = append(got, c.ID)
		}
		if !slices.Equal(got, want) {
			t.Errorf("days [%d, %d): got %v, want %v", tc.from, tc.from+tc.n, got, want)
		}
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

func TestWeekReflectsAddDay(t *testing.T) {
	f, g := buildForest(t, 7)
	micros := func() (n int) {
		for _, c := range f.Week(0) {
			n += c.Micros
		}
		return n
	}
	if got := micros(); got != 14 {
		t.Fatalf("week 0 integrates %d micros, want 14", got)
	}
	// Replacing a day of week 0 shows in the next Week(0).
	spec := cps.DefaultSpec()
	f.AddDay(3, []*cluster.Cluster{dayMicro(g, spec, 3, 2000, 3)})
	if got := micros(); got != 13 { // 6 days × 2 + 1 replaced day × 1
		t.Errorf("after AddDay micros = %d, want 13", got)
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
}

// A month integrates its own days only, also when its edges fall inside a
// week: with 30-day months, weeks 4 and 8 straddle month boundaries.
func TestMonthIntegratesOnlyItsDays(t *testing.T) {
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, opts(), 30)
	for d := 0; d < 60; d++ {
		f.AddDay(d, []*cluster.Cluster{dayMicro(&g, spec, d, 0, 5)})
	}
	for m := 0; m < 2; m++ {
		micros := 0
		for _, c := range f.Month(m) {
			micros += c.Micros
		}
		if micros != 30 {
			t.Errorf("month %d integrates %d micros, want its 30 days' 30", m, micros)
		}
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

// IntegratePath draws merge IDs bucket by bucket in day order, so the IDs
// it assigns do not depend on map iteration.
func TestIntegratePathDrawsIDsInDayOrder(t *testing.T) {
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, cluster.IntegrateOptions{SimThreshold: 0.4, Balance: cluster.Arithmetic}, 30)
	for d := 0; d < 28; d++ {
		f.AddDay(d, []*cluster.Cluster{dayMicro(&g, spec, d, 0, 5)})
	}
	buckets := f.IntegratePath(WeekdayWeekendPath)
	var prev cluster.ID
	for b := 0; b < 8; b++ {
		if len(buckets[b]) != 1 {
			t.Fatalf("bucket %d: %d clusters, want 1", b, len(buckets[b]))
		}
		if id := buckets[b][0].ID; id <= prev {
			t.Errorf("bucket %d merged as ID %d, not above bucket %d's %d", b, id, b-1, prev)
		} else {
			prev = id
		}
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
