package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/predict"
)

// ExtStream measures the online event processor against batch extraction:
// identical clustering (severity and counts modulo midnight splits) at
// streaming throughput — the Section I "online analysis" requirement.
func ExtStream(e *Env) []*Table {
	t := &Table{
		ID:     "ext-stream",
		Title:  "Online vs batch event extraction (one month)",
		Header: []string{"mode", "events", "severity", "time(ms)", "records/s"},
	}
	ds := e.Dataset(0)
	recs := ds.Atypical.Records()

	// Batch: per-day extraction as the forest stores it.
	var idgen cluster.IDGen
	start := time.Now()
	batchCount := 0
	var batchSev cps.Severity
	cps.ForEachDay(ds.Atypical.SplitByDay(e.Spec), func(_ int, dayRecs []cps.Record) {
		for _, c := range cluster.ExtractMicroClusters(&idgen, dayRecs, e.neighbors, e.maxGap) {
			batchCount++
			batchSev += c.Severity()
		}
	})
	batchMS := float64(time.Since(start).Microseconds()) / 1000
	t.AddRow("batch", batchCount, float64(batchSev), batchMS, float64(len(recs))/batchMS*1000)

	// Stream: records arrive in window order; events close online.
	var streamCount int
	var streamSev cps.Severity
	proc, err := e.Sys.NewStreamProcessor(func(c *cluster.Cluster) {
		streamCount++
		streamSev += c.Severity()
	})
	if err != nil {
		t.Notes = append(t.Notes, "stream init failed: "+err.Error())
		return []*Table{t}
	}
	start = time.Now()
	for _, r := range recs {
		if err := proc.Observe(r); err != nil {
			t.Notes = append(t.Notes, "stream error: "+err.Error())
			return []*Table{t}
		}
	}
	if err := proc.Flush(); err != nil {
		t.Notes = append(t.Notes, "stream error: "+err.Error())
		return []*Table{t}
	}
	streamMS := float64(time.Since(start).Microseconds()) / 1000
	t.AddRow("stream", streamCount, float64(streamSev), streamMS, float64(len(recs))/streamMS*1000)
	t.Notes = append(t.Notes,
		"severity must match exactly; the stream closes overnight events whole where the batch splits them at midnight")
	return []*Table{t}
}

// ExtPredict trains the recurrence predictor on the first three weeks of a
// month and scores next-day forecasts on the held-out week.
func ExtPredict(e *Env) []*Table {
	t := &Table{
		ID:     "ext-predict",
		Title:  "Event prediction (train 3 weeks, test held-out days)",
		Header: []string{"day", "class", "precision@50", "severity-coverage"},
	}
	trainDays := e.Cfg.DaysPerMonth * 3 / 4
	if trainDays < 1 {
		trainDays = 1
	}
	byDay := e.Dataset(0).Atypical.SplitByDay(e.Spec)
	var idgen cluster.IDGen
	macros := cluster.Integrate(&idgen, e.micros(trainDays), e.Sys.Forest().Options())
	model, err := predict.Train(macros, predict.Config{
		TrainingDays:  trainDays,
		Period:        e.Spec.PerDay(),
		MinRecurrence: 0.1,
	})
	if err != nil {
		t.Notes = append(t.Notes, "training failed: "+err.Error())
		return []*Table{t}
	}
	for day := trainDays; day < e.Cfg.DaysPerMonth; day++ {
		out := model.Evaluate(byDay[day], 50)
		class := "weekday"
		if day%7 >= 5 {
			class = "weekend"
		}
		t.AddRow(day, class, out.PrecisionAtK, out.SeverityCoverage)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d recurring patterns learned; weekend accuracy drops because recurring events are weekday-only", len(model.Patterns())))
	return []*Table{t}
}

// ExtTrust injects chattering faulty sensors and measures how cleanly the
// corroboration score separates them from healthy ones.
func ExtTrust(e *Env) []*Table {
	t := &Table{
		ID:     "ext-trust",
		Title:  "Trustworthiness analysis: injected faulty sensors vs healthy",
		Header: []string{"group", "sensors", "mean-trust", "min-trust", "max-trust"},
	}
	ds := e.Dataset(0)
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 99))
	n := e.Net.NumSensors()
	faulty := map[cps.SensorID]bool{}
	noisy := append([]cps.Record(nil), ds.Atypical.Records()...)
	for len(faulty) < 5 {
		s := cps.SensorID(rng.Intn(n))
		if faulty[s] {
			continue
		}
		faulty[s] = true
		for i := 0; i < 60; i++ {
			noisy = append(noisy, cps.Record{
				Sensor:   s,
				Window:   cps.Window(rng.Intn(e.Cfg.DaysPerMonth * e.Spec.PerDay())),
				Severity: 2,
			})
		}
	}
	scores, err := e.Sys.TrustScores(cps.NewRecordSet(noisy))
	if err != nil {
		t.Notes = append(t.Notes, "analyzer failed: "+err.Error())
		return []*Table{t}
	}

	var stats [2]struct {
		n               int
		sum, minT, maxT float64
		initialized     bool
	}
	for _, s := range scores {
		idx := 0
		if faulty[s.Sensor] {
			idx = 1
		}
		g := &stats[idx]
		g.n++
		g.sum += s.Trust
		if !g.initialized || s.Trust < g.minT {
			g.minT = s.Trust
		}
		if !g.initialized || s.Trust > g.maxT {
			g.maxT = s.Trust
		}
		g.initialized = true
	}
	labels := [2]string{"healthy", "faulty(injected)"}
	for i, g := range stats {
		mean := 0.0
		if g.n > 0 {
			mean = g.sum / float64(g.n)
		}
		t.AddRow(labels[i], g.n, mean, g.minT, g.maxT)
	}
	t.Notes = append(t.Notes,
		"faulty sensors chatter at random, uncorroborated windows; some overlap real events and score mid-range")
	return []*Table{t}
}
