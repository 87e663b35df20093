package experiments

import (
	"fmt"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/detect"
	"github.com/cpskit/atypical/internal/storage"
)

// Fig14 reproduces the experiment-settings table: one row per monthly
// dataset with sensor count, reading count and atypical percentage.
func Fig14(e *Env) []*Table {
	t := &Table{
		ID:     "fig14",
		Title:  "Datasets (paper: 12 PeMS months, ~4,000 sensors, 3.3e7 readings, 2.3-4.0% atypical)",
		Header: []string{"dataset", "sensors", "readings", "atypical%", "events"},
	}
	for m := 0; m < e.Cfg.Months; m++ {
		ds := e.Dataset(m)
		t.AddRow(
			fmt.Sprintf("D%d", m+1),
			e.Net.NumSensors(),
			ds.NumReadings,
			fmt.Sprintf("~%.1f%%", ds.AtypicalPct()),
			len(ds.Truth),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("thresholds: δs=%.3g δd=%.1fmi δt=%s δsim=%.2g g=%s",
			e.Cfg.DeltaS, e.Cfg.DeltaD, e.Cfg.DeltaT, e.Cfg.SimThreshold, e.Cfg.Balance))
	return []*Table{t}
}

// constructionCosts measures, for one month, the four Fig. 15 curves and the
// four Fig. 16 sizes.
type constructionCosts struct {
	prTime, ocTime, mcTime, acTime time.Duration
	ocSize, mcSize, acSize, aeSize int64
}

func (e *Env) measureMonth(m int) constructionCosts {
	ds := e.Dataset(m)
	var c constructionCosts

	// PR: the pre-processing scan selecting atypical records from the raw
	// reading stream.
	start := time.Now()
	atypical, _ := detect.Scan(ds.ForEachReading)
	c.prTime = time.Since(start)

	// OC: original CubeView aggregates every reading.
	oc := cube.NewCubeView(e.Net, e.Spec, e.Cfg.DaysPerMonth, nil)
	start = time.Now()
	ds.ForEachReading(oc.AddReading)
	c.ocTime = time.Since(start)
	c.ocSize = oc.SizeBytes()

	// MC: modified CubeView aggregates only the (pre-extracted) atypical
	// records.
	mc := cube.NewCubeView(e.Net, e.Spec, e.Cfg.DaysPerMonth, nil)
	start = time.Now()
	for _, r := range atypical.Records() {
		mc.AddRecord(r)
	}
	c.mcTime = time.Since(start)
	c.mcSize = mc.SizeBytes()

	// AC: atypical-cluster construction (Algorithm 1) on the atypical
	// records, per day as the forest stores them.
	var idgen cluster.IDGen
	var micros []*cluster.Cluster
	start = time.Now()
	cps.ForEachDay(atypical.SplitByDay(e.Spec), func(_ int, recs []cps.Record) {
		micros = append(micros, cluster.ExtractMicroClusters(&idgen, recs, e.neighbors, e.maxGap)...)
	})
	c.acTime = time.Since(start)
	c.acSize = storage.ClustersSize(micros)

	// AE: the serialized atypical events themselves (the holistic model AC
	// summarizes).
	var aeRecs []cps.Record
	aeRecs = append(aeRecs, atypical.Records()...)
	c.aeSize = storage.RecordsSize(aeRecs)
	return c
}

// Fig15 reproduces construction time vs number of datasets for OC
// (original CubeView), MC (modified CubeView), PR (pre-processing) and AC
// (atypical clusters). Times are cumulative over datasets, as in the paper.
func Fig15(e *Env) []*Table {
	t := &Table{
		ID:     "fig15",
		Title:  "Construction time vs #datasets (seconds; paper: MC,AC ≈ 10x faster than OC, PR ≈ OC)",
		Header: []string{"#datasets", "MC", "AC", "OC", "PR"},
	}
	s := &Table{
		ID:     "fig16",
		Title:  "Model size vs #datasets (KB; paper: MC smallest, AC ≈ 0.5-1% of AE)",
		Header: []string{"#datasets", "MC", "AC", "OC", "AE"},
	}
	var cum constructionCosts
	for m := 0; m < e.Cfg.Months; m++ {
		c := e.measureMonth(m)
		cum.prTime += c.prTime
		cum.ocTime += c.ocTime
		cum.mcTime += c.mcTime
		cum.acTime += c.acTime
		cum.ocSize += c.ocSize
		cum.mcSize += c.mcSize
		cum.acSize += c.acSize
		cum.aeSize += c.aeSize
		t.AddRow(m+1, cum.mcTime.Seconds(), cum.acTime.Seconds(), cum.ocTime.Seconds(), cum.prTime.Seconds())
		s.AddRow(m+1, kb(cum.mcSize), kb(cum.acSize), kb(cum.ocSize), kb(cum.aeSize))
	}
	t.Notes = append(t.Notes, "MC and AC consume the pre-extracted atypical stream (2-5% of readings); OC and PR scan every reading.")
	s.Notes = append(s.Notes, "AC stores spatial+temporal features per event; AE stores every atypical record.")
	return []*Table{t, s}
}

func kb(bytes int64) float64 { return float64(bytes) / 1024 }
