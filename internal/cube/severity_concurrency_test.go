package cube_test

import (
	"context"
	"sync"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/geo"
)

// allRegions enumerates every grid region id.
func allRegions(g *geo.Grid) []geo.RegionID {
	out := make([]geo.RegionID, 0, g.NumRegions())
	for _, r := range g.Regions() {
		out = append(out, r.ID)
	}
	return out
}

// daySlices splits records into ordered per-day slices — the sharding unit
// of SeverityIndex.AddDays.
func daySlices(spec cps.WindowSpec, recs []cps.Record) [][]cps.Record {
	byDay := cps.NewRecordSet(recs).SplitByDay(spec)
	var out [][]cps.Record
	cps.ForEachDay(byDay, func(_ int, day []cps.Record) {
		out = append(out, day)
	})
	return out
}

// The day-sharded parallel build must be bit-identical to the serial one:
// every day's records stay in one shard, so every cell accumulates in the
// same order as the per-day serial loop.
func TestAddDaysBitIdenticalToSerial(t *testing.T) {
	net := detNet()
	spec := cps.DefaultSpec()
	recs := detRecords(net, 5000, 31, 7)
	days := daySlices(spec, recs)

	serial := cube.NewSeverityIndex(net, spec)
	for _, day := range days {
		serial.Add(day)
	}

	regions := allRegions(net.Grid)
	ranges := []cps.TimeRange{
		cps.DayRange(spec, 0, 7),
		cps.DayRange(spec, 2, 1),
		{From: 5, To: cps.Window(3*spec.PerDay() + 17)}, // ragged edges
	}
	for _, workers := range []int{1, 2, 8} {
		parIdx := cube.NewSeverityIndex(net, spec)
		if err := parIdx.AddDays(context.Background(), days, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range regions {
			for _, tr := range ranges {
				got, want := parIdx.F(r, tr), serial.F(r, tr)
				if float64(got) != float64(want) { //atyplint:ignore floatcmp the test asserts bit-identity of the sharded build
					t.Fatalf("workers=%d region=%d tr=%v: F=%v, serial %v", workers, r, tr, got, want)
				}
			}
		}
	}
}

// Readers run while AddDays ingests; the race detector is the oracle, and
// the final totals must include every record.
func TestSeverityIndexConcurrentReadDuringAdd(t *testing.T) {
	net := detNet()
	spec := cps.DefaultSpec()
	recs := detRecords(net, 4000, 7, 7)
	days := daySlices(spec, recs)
	regions := allRegions(net.Grid)
	tr := cps.DayRange(spec, 0, 7)

	x := cube.NewSeverityIndex(net, spec)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				x.FTotal(regions, tr)
				x.RedZones(regions, tr, 0.01, net.NumSensors())
				x.GuidedRedZones(regions, tr, 0.01, net.NumSensors())
			}
		}()
	}
	if err := x.AddDays(context.Background(), days, 4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	want := cube.FScan(net, recs, regions, tr)
	if got := x.FTotal(regions, tr); !severityApproxEq(got, want) {
		t.Fatalf("FTotal after concurrent ingest = %v, want %v", got, want)
	}
}

func TestSeverityIndexReset(t *testing.T) {
	net := detNet()
	spec := cps.DefaultSpec()
	recs := detRecords(net, 500, 5, 3)
	x := cube.NewSeverityIndex(net, spec)
	x.Add(recs)
	tr := cps.DayRange(spec, 0, 3)
	if x.FTotal(allRegions(net.Grid), tr) == 0 {
		t.Fatal("fixture produced no severity; reset check is vacuous")
	}
	x.Reset()
	if got := x.FTotal(allRegions(net.Grid), tr); got != 0 {
		t.Fatalf("FTotal after Reset = %v, want 0", got)
	}
}

func TestAddDaysCancelled(t *testing.T) {
	net := detNet()
	spec := cps.DefaultSpec()
	days := daySlices(spec, detRecords(net, 500, 5, 3))
	x := cube.NewSeverityIndex(net, spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := x.AddDays(ctx, days, 4); err == nil {
		t.Fatal("cancelled AddDays should return the context error")
	}
	if got := x.FTotal(allRegions(net.Grid), cps.DayRange(spec, 0, 3)); got != 0 {
		t.Fatalf("cancelled AddDays ingested partial data: FTotal=%v", got)
	}
}

func severityApproxEq(a, b cps.Severity) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	s := float64(a)
	if s < 0 {
		s = -s
	}
	if s < 1 {
		s = 1
	}
	return d <= 1e-6*s
}
