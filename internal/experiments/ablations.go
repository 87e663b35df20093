package experiments

import (
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/query"
)

// AblExtract compares the two complexity regimes of Proposition 1: event
// extraction as one sweep over the spatial index's neighbor lists
// (O(N + n·|neighbors|)) vs the brute-force pairwise scan (O(N + n²)), over
// growing daily record counts.
func AblExtract(e *Env) []*Table {
	t := &Table{
		ID:     "abl-extract",
		Title:  "Event extraction: indexed vs brute force (ms per day of records)",
		Header: []string{"records", "indexed(ms)", "brute(ms)", "events"},
	}
	ds := e.Dataset(0)
	byDay := ds.Atypical.SplitByDay(e.Spec)
	locs := e.Locs()

	// Concatenate days until each target size is reached.
	var pool []cps.Record
	for day := 0; day < e.Cfg.DaysPerMonth; day++ {
		pool = append(pool, byDay[day]...)
	}
	sizes := []int{500, 1000, 2000, 4000}
	for _, n := range sizes {
		if n > len(pool) {
			n = len(pool)
		}
		recs := cps.NewRecordSet(pool[:n]).Records()

		start := time.Now()
		fast := cluster.ExtractEvents(recs, e.neighbors, e.maxGap)
		fastMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		slow := cluster.ExtractEventsBrute(recs, locs, e.Cfg.DeltaD, e.maxGap)
		slowMS := float64(time.Since(start).Microseconds()) / 1000

		events := len(fast)
		if len(slow) != events {
			// The two variants are equivalence-tested; disagreement here
			// means a regression worth surfacing in the table.
			t.Notes = append(t.Notes, "WARNING: indexed and brute-force event counts disagree")
		}
		t.AddRow(len(recs), fastMS, slowMS, events)
		if n == len(pool) {
			break
		}
	}
	t.Notes = append(t.Notes, "the gap widens quadratically with the per-day record count")
	return []*Table{t}
}

// AblIntegrate compares Algorithm 3 implementations: posting-list candidate
// generation vs the literal quadratic rescan.
func AblIntegrate(e *Env) []*Table {
	t := &Table{
		ID:     "abl-integrate",
		Title:  "Cluster integration: posting-list candidates vs literal Algorithm 3 (ms)",
		Header: []string{"micros", "indexed(ms)", "naive(ms)", "macros"},
	}
	micros := e.micros(e.Cfg.DaysPerMonth)
	opts := e.Sys.Forest().Options()
	for _, n := range []int{100, 200, 400, 800} {
		if n > len(micros) {
			n = len(micros)
		}
		in := micros[:n]

		var g1 cluster.IDGen
		start := time.Now()
		fast := cluster.Integrate(&g1, in, opts)
		fastMS := float64(time.Since(start).Microseconds()) / 1000

		var g2 cluster.IDGen
		start = time.Now()
		slow := cluster.IntegrateNaive(&g2, in, opts)
		slowMS := float64(time.Since(start).Microseconds()) / 1000

		t.AddRow(n, fastMS, slowMS, len(fast))
		if len(fast) != len(slow) {
			t.Notes = append(t.Notes, "note: implementations reached different (valid) fixpoints at one size")
		}
		if n == len(micros) {
			break
		}
	}
	return []*Table{t}
}

// AblAggregate compares three ways to answer the bottom-up total severity
// F(W, T): a raw record scan (Equation 1 verbatim), the per-region rollup
// index, and the aggregate R-tree over per-sensor totals.
func AblAggregate(e *Env) []*Table {
	t := &Table{
		ID:     "abl-agg",
		Title:  "F(W,T) computation: scan vs rollup index vs aggregate R-trees (µs per query)",
		Header: []string{"days", "scan(µs)", "rollup(µs)", "rtree(µs)", "arbtree(µs)"},
	}
	ds := e.Dataset(0)
	recs := ds.Atypical.Records()
	regions := query.CityQuery(e.Net, e.Spec, 0, e.Cfg.DaysPerMonth, e.Cfg.DeltaS).Regions

	idx := cube.NewSeverityIndex(e.Net, e.Spec)
	idx.Add(recs)

	locs := e.Locs()
	tree := index.NewRTree(locs)
	weights := make([]float64, len(locs))
	for _, r := range recs {
		weights[r.Sensor] += float64(r.Severity)
	}
	arb := index.NewAggRTree(locs, recs, e.Spec, e.Cfg.DaysPerMonth)
	box := e.Net.Grid.Box

	const reps = 20
	for _, days := range []int{1, 7, e.Cfg.DaysPerMonth} {
		tr := cps.DayRange(e.Spec, 0, days)

		start := time.Now()
		for i := 0; i < reps; i++ {
			cube.FScan(e.Net, recs, regions, tr)
		}
		scanUS := float64(time.Since(start).Microseconds()) / reps

		start = time.Now()
		for i := 0; i < reps; i++ {
			idx.FTotal(regions, tr)
		}
		rollupUS := float64(time.Since(start).Microseconds()) / reps

		// The R-tree aggregates the month's per-sensor totals over the
		// whole box; it answers the spatial restriction, not the temporal
		// one, so it is only comparable at full range.
		start = time.Now()
		for i := 0; i < reps; i++ {
			tree.Aggregate(box, func(id cps.SensorID) float64 { return weights[id] })
		}
		rtreeUS := float64(time.Since(start).Microseconds()) / reps

		// The aggregate spatio-temporal R-tree (Papadias et al. style)
		// answers the box-and-day-range query directly.
		start = time.Now()
		for i := 0; i < reps; i++ {
			arb.Aggregate(box, 0, days)
		}
		arbUS := float64(time.Since(start).Microseconds()) / reps

		t.AddRow(days, scanUS, rollupUS, rtreeUS, arbUS)
	}
	t.Notes = append(t.Notes,
		"rollup answers day-aligned F in O(regions×days); rtree is spatial-only (whole-month weights); arbtree carries per-node per-day aggregates")
	return []*Table{t}
}
