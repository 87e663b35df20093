package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
)

func TestMaxWindowGap(t *testing.T) {
	cases := []struct {
		deltaT time.Duration
		want   int
	}{
		{5 * time.Minute, 0},  // interval must be < 5 min: same window only
		{15 * time.Minute, 2}, // paper default: up to 2 windows apart
		{80 * time.Minute, 15},
		{0, 0},
	}
	for _, c := range cases {
		if got := MaxWindowGap(c.deltaT, 5*time.Minute); got != c.want {
			t.Errorf("MaxWindowGap(%v) = %d, want %d", c.deltaT, got, c.want)
		}
	}
}

// lineLocs places n sensors in a line spaced `spacing` miles apart.
func lineLocs(n int, spacingMiles float64) []geo.Point {
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{Lat: 34, Lon: -118 + float64(i)*spacingMiles/geo.MilesPerDegreeLon(34)}
	}
	return locs
}

func neighborsFor(locs []geo.Point, deltaD float64) [][]cps.SensorID {
	return index.NewNeighborIndex(locs, deltaD).NeighborLists()
}

func TestExtractEventsTwoSeparatedEvents(t *testing.T) {
	locs := lineLocs(10, 1) // 1 mile apart
	nb := neighborsFor(locs, 1.5)
	recs := cps.NewRecordSet([]cps.Record{
		// Event 1: sensors 0-1, windows 0-1.
		{Sensor: 0, Window: 0, Severity: 3},
		{Sensor: 1, Window: 0, Severity: 4},
		{Sensor: 1, Window: 1, Severity: 5},
		// Event 2: sensor 8, far away in space.
		{Sensor: 8, Window: 0, Severity: 2},
		// Event 3: sensor 0 again but 50 windows later (far in time).
		{Sensor: 0, Window: 50, Severity: 1},
	}).Records()
	events := ExtractEvents(recs, nb, 2)
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if len(events[0]) != 3 {
		t.Errorf("first event size = %d, want 3", len(events[0]))
	}
}

func TestExtractEventsTransitiveChain(t *testing.T) {
	// Records form a chain: each consecutive pair is direct related, the
	// ends are only transitively related (Definition 2).
	locs := lineLocs(6, 1)
	nb := neighborsFor(locs, 1.5)
	var recs []cps.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, cps.Record{Sensor: cps.SensorID(i), Window: cps.Window(i), Severity: 1})
	}
	events := ExtractEvents(cps.NewRecordSet(recs).Records(), nb, 1)
	if len(events) != 1 {
		t.Fatalf("chain should form a single event, got %d", len(events))
	}
	if len(events[0]) != 6 {
		t.Errorf("event size = %d", len(events[0]))
	}
}

func TestExtractEventsSameSensorTemporalLink(t *testing.T) {
	// A single sensor atypical across consecutive windows is one event even
	// with no neighbors at all.
	locs := lineLocs(1, 1)
	nb := neighborsFor(locs, 1.5)
	recs := []cps.Record{
		{Sensor: 0, Window: 0, Severity: 1},
		{Sensor: 0, Window: 1, Severity: 1},
		{Sensor: 0, Window: 2, Severity: 1},
	}
	events := ExtractEvents(recs, nb, 1)
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
}

func TestExtractEventsGapZero(t *testing.T) {
	// With maxGap 0 (δt = window width), only same-window spatial links
	// count.
	locs := lineLocs(2, 1)
	nb := neighborsFor(locs, 1.5)
	recs := []cps.Record{
		{Sensor: 0, Window: 0, Severity: 1},
		{Sensor: 1, Window: 0, Severity: 1}, // same window, adjacent: linked
		{Sensor: 0, Window: 1, Severity: 1}, // next window: NOT linked
	}
	events := ExtractEvents(recs, nb, 0)
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
}

func TestExtractEventsEmpty(t *testing.T) {
	if got := ExtractEvents(nil, nil, 2); got != nil {
		t.Errorf("empty extraction = %v", got)
	}
}

func TestExtractMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	locs := make([]geo.Point, 40)
	for i := range locs {
		locs[i] = geo.Point{Lat: 34 + rng.Float64()*0.2, Lon: -118 + rng.Float64()*0.3}
	}
	for trial := 0; trial < 20; trial++ {
		var recs []cps.Record
		n := 30 + rng.Intn(120)
		for i := 0; i < n; i++ {
			recs = append(recs, cps.Record{
				Sensor:   cps.SensorID(rng.Intn(len(locs))),
				Window:   cps.Window(rng.Intn(40)),
				Severity: cps.Severity(rng.Intn(5)) + 1,
			})
		}
		canonical := cps.NewRecordSet(recs).Records()
		deltaD := []float64{1.5, 4, 10}[trial%3]
		maxGap := trial % 4
		nb := neighborsFor(locs, deltaD)

		fast := ExtractEvents(canonical, nb, maxGap)
		slow := ExtractEventsBrute(canonical, locs, deltaD, maxGap)
		if err := sameEvents(fast, slow); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// sameEvents reports the first difference between two event lists: their
// order, their sizes and every record must match.
func sameEvents(fast, slow [][]cps.Record) error {
	if len(fast) != len(slow) {
		return fmt.Errorf("sweep %d events, brute %d", len(fast), len(slow))
	}
	for e := range fast {
		if !slices.Equal(fast[e], slow[e]) {
			return fmt.Errorf("event %d: sweep %v, brute %v", e, fast[e], slow[e])
		}
	}
	return nil
}

// FuzzExtractEventsEquivalence checks the sweep against the pairwise oracle
// on random canonical record sets. Sixteen sensors sit in a 3×4-mile box,
// but records name only the first twelve, so neighbor lists also name
// sensors with no records. Windows straddle the start of a day (negative
// days included), maxGap runs 0–3 and δd ranges from isolating to linking
// almost every pair.
func FuzzExtractEventsEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 1, 11, 2, 12, 3, 13, 0, 14, 5, 20}, uint8(2), uint8(1), int64(1))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 11, 0, 11, 3, 4, 12, 4, 15}, uint8(0), uint8(2), int64(-3))
	f.Add([]byte{7, 11, 8, 12, 9, 13, 10, 12, 1, 1, 6, 23}, uint8(3), uint8(0), int64(0))
	f.Add([]byte{}, uint8(1), uint8(3), int64(5))
	rng := rand.New(rand.NewSource(5))
	locs := make([]geo.Point, 16)
	for i := range locs {
		locs[i] = geo.Point{Lat: 34 + rng.Float64()*3/geo.MilesPerDegreeLat, Lon: -118 + rng.Float64()*4/geo.MilesPerDegreeLon(34)}
	}
	deltas := []float64{0.3, 1, 2, 6}
	perDay := cps.Window(cps.DefaultSpec().PerDay())
	f.Fuzz(func(t *testing.T, data []byte, gapRaw, deltaRaw uint8, day int64) {
		maxGap := int(gapRaw % 4)
		deltaD := deltas[int(deltaRaw)%len(deltas)]
		// Each byte pair is (sensor, offset): windows run 12 before to 11
		// after the day boundary.
		start := cps.Window(day%(1<<20))*perDay - 12
		var recs []cps.Record
		for ; len(data) >= 2; data = data[2:] {
			recs = append(recs, cps.Record{
				Sensor:   cps.SensorID(data[0] % 12),
				Window:   start + cps.Window(data[1]%24),
				Severity: cps.Severity(data[1]%5 + 1),
			})
		}
		canonical := cps.NewRecordSet(recs).Records()
		fast := ExtractEvents(canonical, neighborsFor(locs, deltaD), maxGap)
		slow := ExtractEventsBrute(canonical, locs, deltaD, maxGap)
		if err := sameEvents(fast, slow); err != nil {
			t.Fatalf("maxGap %d, δd %v: %v", maxGap, deltaD, err)
		}
	})
}

func TestExtractEventsPartition(t *testing.T) {
	// Events partition the record set: every record in exactly one event.
	rng := rand.New(rand.NewSource(7))
	locs := lineLocs(20, 0.8)
	nb := neighborsFor(locs, 1.5)
	var recs []cps.Record
	for i := 0; i < 300; i++ {
		recs = append(recs, cps.Record{
			Sensor:   cps.SensorID(rng.Intn(20)),
			Window:   cps.Window(rng.Intn(100)),
			Severity: 1,
		})
	}
	canonical := cps.NewRecordSet(recs).Records()
	events := ExtractEvents(canonical, nb, 2)
	total := 0
	seen := make(map[cps.Record]bool)
	for _, ev := range events {
		total += len(ev)
		for _, r := range ev {
			if seen[r] {
				t.Fatalf("record %v in two events", r)
			}
			seen[r] = true
		}
	}
	if total != len(canonical) {
		t.Errorf("events cover %d records, want %d", total, len(canonical))
	}
}

func TestExtractMicroClusters(t *testing.T) {
	locs := lineLocs(10, 1)
	nb := neighborsFor(locs, 1.5)
	recs := cps.NewRecordSet([]cps.Record{
		{Sensor: 0, Window: 0, Severity: 3},
		{Sensor: 1, Window: 0, Severity: 4},
		{Sensor: 8, Window: 0, Severity: 2},
	}).Records()
	var g IDGen
	micros := ExtractMicroClusters(&g, recs, nb, 2)
	if len(micros) != 2 {
		t.Fatalf("micros = %d, want 2", len(micros))
	}
	var total cps.Severity
	for _, c := range micros {
		total += c.Severity()
		if c.Micros != 1 {
			t.Error("extracted clusters are micro-clusters")
		}
	}
	if total != 9 {
		t.Errorf("total severity = %v, want 9", total)
	}
}
