package forest

import (
	"sync"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// Readers and writers hammer one forest; the race detector is the oracle,
// and the final state must reflect every write.
func TestForestConcurrentReadersAndWriters(t *testing.T) {
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, opts(), 30)
	for d := 0; d < 7; d++ {
		f.AddDay(d, []*cluster.Cluster{dayMicro(&g, spec, d, 0, 5)})
	}

	const writers, readers, rounds = 3, 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				day := 7 + w*rounds + r
				f.AddDay(day, []*cluster.Cluster{dayMicro(&g, spec, day, 1000*(w+1), 3)})
				f.AppendDay(day, []*cluster.Cluster{dayMicro(&g, spec, day, 2000*(w+1), 2)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f.Day(i % 10)
				f.Days()
				f.Week(i % 3)
				f.Month(0)
				f.MicrosInRange(cps.DayRange(spec, i%5, 3))
				f.IntegratePath(WeekdayWeekendPath)
				f.Stats()
			}
		}()
	}
	wg.Wait()

	if got := f.Stats().Days; got != 7+writers*rounds {
		t.Fatalf("days after concurrent writes = %d, want %d", got, 7+writers*rounds)
	}
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			day := 7 + w*rounds + r
			if got := len(f.Day(day)); got != 2 {
				t.Fatalf("day %d has %d clusters, want 2 (AddDay + AppendDay)", day, got)
			}
		}
	}
	// A level integrated after the storm reflects every write.
	sevOf := func(cs []*cluster.Cluster) cps.Severity {
		var s cps.Severity
		for _, c := range cs {
			s += c.Severity()
		}
		return s
	}
	var microSev cps.Severity
	for _, d := range f.Days() {
		if d/DaysPerWeek == 1 {
			microSev += sevOf(f.Day(d))
		}
	}
	if got := sevOf(f.Week(1)); got != microSev {
		t.Errorf("week 1 severity after storm = %v, want %v", got, microSev)
	}
}

// AppendDay is copy-on-write: a reader's snapshot must not change when the
// day is extended.
func TestAppendDayCopyOnWrite(t *testing.T) {
	var g cluster.IDGen
	spec := cps.DefaultSpec()
	f := New(spec, &g, opts(), 30)
	f.AddDay(0, []*cluster.Cluster{dayMicro(&g, spec, 0, 0, 5)})

	snapshot := f.Day(0)
	wantLen, wantFirst := len(snapshot), snapshot[0]
	f.AppendDay(0, []*cluster.Cluster{dayMicro(&g, spec, 0, 1000, 5)})

	if len(snapshot) != wantLen || snapshot[0] != wantFirst {
		t.Fatal("AppendDay mutated a reader's snapshot")
	}
	if got := len(f.Day(0)); got != wantLen+1 {
		t.Fatalf("day 0 after append = %d clusters, want %d", got, wantLen+1)
	}
}
