package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

// The merge-tree result must be identical — IDs and feature bits — for every
// worker count, because the tree shape is fixed by the input alone.
func TestIntegrateParallelWorkersIndependent(t *testing.T) {
	build := func() (*IDGen, []*Cluster) {
		rng := rand.New(rand.NewSource(11))
		var g IDGen
		return &g, randomMicros(rng, &g, 300)
	}
	opts := defaultOpts()
	refGen, refMicros := build()
	ref := IntegrateParallel(refGen, refMicros, opts, 1)
	for _, workers := range []int{2, 3, 8, 16} {
		gen, micros := build()
		got := IntegrateParallel(gen, micros, opts, workers)
		if !clustersExactEq(got, ref) {
			t.Fatalf("workers=%d: output differs from workers=1", workers)
		}
	}
}

// IntegrateParallel keeps the Algorithm 3 postcondition and the conservation
// laws (total severity, total micro count) that Integrate keeps.
func TestIntegrateParallelInvariants(t *testing.T) {
	f := func(seed int64, gIdx, thIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g IDGen
		micros := randomMicros(rng, &g, 2+rng.Intn(40))
		opts := IntegrateOptions{
			SimThreshold: []float64{0.2, 0.5, 0.8}[int(thIdx)%3],
			Balance:      Balances[int(gIdx)%len(Balances)],
		}
		var wantSev cps.Severity
		for _, m := range micros {
			wantSev += m.Severity()
		}
		out := IntegrateParallel(&g, micros, opts, 4)
		var gotSev cps.Severity
		gotMicros := 0
		for _, c := range out {
			gotSev += c.Severity()
			gotMicros += c.Micros
			if !c.SF.Valid() || !c.TF.Valid() {
				return false
			}
		}
		if !approxEq(float64(gotSev), float64(wantSev)) || gotMicros != len(micros) {
			return false
		}
		return fixpointHolds(out, opts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// On workloads whose groups are separated by the threshold, the parallel
// reduction lands on the same partition as the serial path.
func TestIntegrateParallelMatchesSerialOnSeparatedGroups(t *testing.T) {
	var g IDGen
	var micros []*Cluster
	// Well-separated groups, enough micros to spill across several chunks.
	const groups = 5
	for grp := 0; grp < groups; grp++ {
		for rep := 0; rep < 60; rep++ {
			var recs []cps.Record
			for k := 0; k < 4; k++ {
				recs = append(recs, cps.Record{
					Sensor:   cps.SensorID(grp*100 + k),
					Window:   cps.Window(grp*1000 + k),
					Severity: cps.Severity(rep%3 + 1),
				})
			}
			micros = append(micros, FromRecords(g.Next(), recs))
		}
	}
	opts := defaultOpts()
	serial := Integrate(&g, micros, opts)
	par := IntegrateParallel(&g, micros, opts, 4)
	if len(serial) != groups || len(par) != groups {
		t.Fatalf("serial=%d parallel=%d, want %d groups", len(serial), len(par), groups)
	}
	// Same partition: match clusters by sensor span and compare severities.
	bySensor := func(set []*Cluster) map[cps.SensorID]*Cluster {
		m := make(map[cps.SensorID]*Cluster)
		for _, c := range set {
			m[c.Sensors()[0]] = c
		}
		return m
	}
	sm, pm := bySensor(serial), bySensor(par)
	for key, sc := range sm {
		pc, ok := pm[key]
		if !ok {
			t.Fatalf("parallel output missing group anchored at sensor %d", key)
		}
		if pc.Micros != sc.Micros || !approxEq(float64(pc.Severity()), float64(sc.Severity())) {
			t.Fatalf("group %d: parallel (micros=%d sev=%v) vs serial (micros=%d sev=%v)",
				key, pc.Micros, pc.Severity(), sc.Micros, sc.Severity())
		}
	}
}

func TestIntegrateParallelSmallInputsPassThrough(t *testing.T) {
	var g IDGen
	if out := IntegrateParallel(&g, nil, defaultOpts(), 4); len(out) != 0 {
		t.Error("empty input should stay empty")
	}
	c := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 0, Severity: 1}})
	out := IntegrateParallel(&g, []*Cluster{c}, defaultOpts(), 4)
	if len(out) != 1 || out[0] != c {
		t.Error("single cluster should pass through unchanged")
	}
	if c.ID != 1 {
		t.Errorf("pass-through cluster was renumbered to %d", c.ID)
	}
}

func TestIntegrateParallelCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var g IDGen
	micros := randomMicros(rng, &g, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := IntegrateParallelCtx(ctx, &g, micros, defaultOpts(), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestIntegrateParallelPanicsOnZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var g IDGen
	IntegrateParallel(&g, nil, IntegrateOptions{SimThreshold: 0}, 4)
}

// FuzzParallelIntegrateEquivalence drives IntegrateParallel with arbitrary
// record multisets and checks the determinism contract (worker-count
// independence, bit for bit) plus the conservation laws shared with the
// serial path. Registered in the Makefile fuzz-smoke list.
func FuzzParallelIntegrateEquivalence(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte, split byte) {
		recs := fuzzRecords(data)
		if len(recs) == 0 {
			return
		}
		// Slice the multiset into micro-clusters of (split%5)+1 records.
		width := int(split)%5 + 1
		build := func() (*IDGen, []*Cluster) {
			var gen IDGen
			var micros []*Cluster
			for lo := 0; lo < len(recs); lo += width {
				hi := lo + width
				if hi > len(recs) {
					hi = len(recs)
				}
				micros = append(micros, FromRecords(gen.Next(), recs[lo:hi]))
			}
			return &gen, micros
		}
		opts := IntegrateOptions{SimThreshold: 0.5, Balance: Arithmetic}

		gen1, micros1 := build()
		var wantSev cps.Severity
		for _, m := range micros1 {
			wantSev += m.Severity()
		}
		out1 := IntegrateParallel(gen1, micros1, opts, 1)

		gen4, micros4 := build()
		out4 := IntegrateParallel(gen4, micros4, opts, 4)
		if !clustersExactEq(out1, out4) {
			t.Fatalf("worker count changed the result: %d clusters at w=1 vs %d at w=4", len(out1), len(out4))
		}

		var gotSev cps.Severity
		gotMicros := 0
		for _, c := range out1 {
			gotSev += c.Severity()
			gotMicros += c.Micros
			if !c.SF.Valid() || !c.TF.Valid() {
				t.Fatalf("non-canonical feature in output: %v", c)
			}
		}
		if !approxEq(float64(gotSev), float64(wantSev)) {
			t.Fatalf("severity not conserved: got %v want %v", gotSev, wantSev)
		}
		if gotMicros != len(micros1) {
			t.Fatalf("micro count not conserved: got %d want %d", gotMicros, len(micros1))
		}
		if !fixpointHolds(out1, opts) {
			t.Fatal("fixpoint violated: a surviving pair exceeds the threshold")
		}
	})
}
