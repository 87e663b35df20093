package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
)

// chainNeighbors builds a line-graph adjacency: sensor i borders i-1 and i+1.
func chainNeighbors(n int) [][]cps.SensorID {
	out := make([][]cps.SensorID, n)
	for i := range out {
		if i > 0 {
			out[i] = append(out[i], cps.SensorID(i-1))
		}
		if i < n-1 {
			out[i] = append(out[i], cps.SensorID(i+1))
		}
	}
	return out
}

// parallelFixtureDays generates a deterministic multi-day workload: each day
// carries several bursts of atypical records on contiguous sensor runs, in
// canonical (window, sensor) order like the real per-day record slices.
func parallelFixtureDays(seed int64, numDays, numSensors int) []DayRecords {
	rng := rand.New(rand.NewSource(seed))
	days := make([]DayRecords, numDays)
	for d := range days {
		var recs []cps.Record
		bursts := 3 + rng.Intn(5)
		for b := 0; b < bursts; b++ {
			s0 := rng.Intn(numSensors - 4)
			w0 := cps.Window(d*288 + rng.Intn(280))
			for k := 0; k < 2+rng.Intn(4); k++ {
				recs = append(recs, cps.Record{
					Sensor:   cps.SensorID(s0 + k%4),
					Window:   w0 + cps.Window(k/2),
					Severity: cps.Severity(rng.Intn(4) + 1),
				})
			}
		}
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Window != recs[j].Window {
				return recs[i].Window < recs[j].Window
			}
			return recs[i].Sensor < recs[j].Sensor
		})
		days[d] = DayRecords{Day: d, Records: recs}
	}
	return days
}

// clustersExactEq requires identical IDs, micro counts and bit-identical
// features — the contract for paths that promise byte-identical reports.
func clustersExactEq(a, b []*Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Micros != b[i].Micros {
			return false
		}
		if !featuresExactEq(a[i].SF, b[i].SF) || !featuresExactEq(a[i].TF, b[i].TF) {
			return false
		}
	}
	return true
}

// The parallel extractor must reproduce the serial per-day loop — IDs
// included — for every worker count.
func TestExtractMicroClustersDaysMatchesSerial(t *testing.T) {
	const maxGap = 2
	days := parallelFixtureDays(7, 6, 40)
	neighbors := chainNeighbors(40)

	var serialGen IDGen
	serial := make([][]*Cluster, len(days))
	for i, d := range days {
		serial[i] = ExtractMicroClusters(&serialGen, d.Records, neighbors, maxGap)
	}

	serialNext := serialGen.Next() // first unconsumed ID after the serial run

	for _, workers := range []int{1, 2, 3, 8} {
		var gen IDGen
		got, err := ExtractMicroClustersDays(context.Background(), &gen, days, neighbors, maxGap, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d day slots, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if !clustersExactEq(got[i], serial[i]) {
				t.Fatalf("workers=%d: day %d diverges from serial extraction", workers, i)
			}
		}
		if next := gen.Next(); next != serialNext {
			t.Fatalf("workers=%d: ID budget diverged: parallel next=%d serial next=%d", workers, next, serialNext)
		}
	}
}

func TestExtractMicroClustersDaysEmptyAndCancelled(t *testing.T) {
	var gen IDGen
	out, err := ExtractMicroClustersDays(context.Background(), &gen, nil, nil, 1, 4)
	if err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	days := parallelFixtureDays(1, 3, 20)
	if _, err := ExtractMicroClustersDays(ctx, &gen, days, chainNeighbors(20), 1, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v", err)
	}
}
