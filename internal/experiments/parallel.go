package experiments

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
)

// ParStage holds one construction run's per-stage wall-clock seconds: the
// three offline phases (micro-cluster extraction and the severity-index
// build, which the parallel pipeline shards, and the serial month-level
// integration).
type ParStage struct {
	Extract   float64 `json:"extract_s"`
	Integrate float64 `json:"integrate_s"`
	Severity  float64 `json:"severity_s"`
	Total     float64 `json:"total_s"`
	// Calib is the wall time of the calibration run timed just before this
	// run; zero in artifacts from before the field existed, which divide by
	// ParResult.Calib instead.
	Calib float64 `json:"calib_s,omitempty"`
}

// Units returns the stage's total in calibration units: divided by its own
// calibration run, or by fallback (the artifact's calib_s) when the stage
// carries none.
func (s ParStage) Units(fallback float64) float64 {
	if s.Calib > 0 {
		return s.Total / s.Calib
	}
	return s.Total / fallback
}

// ParResult is the quick parallel-construction benchmark emitted by
// `atypbench -parjson` (and `make bench-quick`): the serial pipeline versus
// the worker-pool pipeline over the same month of records. GOMAXPROCS,
// NumCPU and GoVersion are the host facts a regression gate must match
// before comparing two artifacts' timings; Calib is the unit it compares
// them in.
type ParResult struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	GoVersion  string   `json:"go_version"`
	Workers    int      `json:"workers"`
	Sensors    int      `json:"sensors"`
	Records    int      `json:"records"`
	Serial     ParStage `json:"serial"`
	Parallel   ParStage `json:"parallel"`
	Speedup    float64  `json:"speedup"`
	// Calib is the median wall time of a fixed workload (calibrate) timed
	// before every construction run of the same process. Dividing a time
	// by it measures the time in units of the host's speed at that moment,
	// which drifts between processes on a shared VM; zero in artifacts
	// from before the field existed.
	Calib float64 `json:"calib_s,omitempty"`
	// Metrics is a flattened obs snapshot of the environment's System after
	// its ingest and one All/Pru/Gui week query each — the
	// bench-quick artifact doubling as an observability smoke test. JSON
	// marshals maps in sorted key order, so the artifact is deterministic
	// modulo timing-valued series.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// ShardQuery is the sharded-query benchmark (see MeasureShardedQuery),
	// absent in artifacts written before sharding existed so the regression
	// gate stays nil-tolerant across the format change.
	ShardQuery *ShardQueryBench `json:"shard_query,omitempty"`
}

// queryMetrics runs one week-long query per strategy on Sys and returns the
// flattened snapshot of its observer, which also holds NewEnv's ingest.
func (e *Env) queryMetrics() map[string]float64 {
	for _, s := range strategies {
		e.run(atypical.QueryRequest{Days: min(7, e.Cfg.QueryMonths*e.Cfg.DaysPerMonth), Strategy: s})
	}
	return e.Sys.Metrics().Flatten()
}

// parStage runs one full offline construction of month 0. workers == 0 takes
// the serial path; workers > 0 shards extraction and the severity build.
// Integration is the serial kernel on both sides.
func (e *Env) parStage(workers int) ParStage {
	ds := e.Dataset(0)
	byDay := ds.Atypical.SplitByDay(e.Spec)
	var days []cluster.DayRecords
	var slices [][]cps.Record
	cps.ForEachDay(byDay, func(day int, recs []cps.Record) {
		days = append(days, cluster.DayRecords{Day: day, Records: recs})
		slices = append(slices, recs)
	})

	var s ParStage
	var idgen cluster.IDGen

	start := time.Now()
	var perDay [][]*cluster.Cluster
	if workers == 0 {
		for _, d := range days {
			perDay = append(perDay, cluster.ExtractMicroClusters(&idgen, d.Records, e.neighbors, e.maxGap))
		}
	} else {
		var err error
		perDay, err = cluster.ExtractMicroClustersDays(context.Background(), &idgen, days, e.neighbors, e.maxGap, workers)
		if err != nil {
			panic(err) // background context cannot cancel
		}
	}
	s.Extract = time.Since(start).Seconds()

	var micros []*cluster.Cluster
	for _, cs := range perDay {
		micros = append(micros, cs...)
	}
	start = time.Now()
	cluster.Integrate(&idgen, micros, e.Sys.Forest().Options())
	s.Integrate = time.Since(start).Seconds()

	sev := cube.NewSeverityIndex(e.Net, e.Spec)
	start = time.Now()
	if workers == 0 {
		sev.Add(ds.Atypical.Records())
	} else {
		if err := sev.AddDays(context.Background(), slices, workers); err != nil {
			panic(err)
		}
	}
	s.Severity = time.Since(start).Seconds()
	s.Total = s.Extract + s.Integrate + s.Severity
	return s
}

// benchReps is how many times the bench-quick artifact repeats each timed
// stage.
const benchReps = 7

// medianStage runs the construction benchReps times, each run preceded by a
// collection and by a calibrate run (appended to calib, and kept as the
// run's Calib), and returns the run whose time in calibration units is the
// median. The host's speed drifts within one process by more than the 25 %
// regression budget (serial construction spread 16–26 ms in one process on
// a 2-vCPU VM); dividing each run by the calibration timed just before it
// takes out part of that drift, and the median ignores the runs at either
// end of what is left.
func (e *Env) medianStage(workers int, calib *[]float64) ParStage {
	runs := make([]ParStage, benchReps)
	for i := range runs {
		runtime.GC()
		c := calibrate()
		*calib = append(*calib, c)
		runs[i] = e.parStage(workers)
		runs[i].Calib = c
	}
	slices.SortFunc(runs, func(a, b ParStage) int { return cmp.Compare(a.Units(0), b.Units(0)) })
	return runs[len(runs)/2]
}

// calibrate runs a fixed workload that does not depend on any code of this
// module — filling, sorting and indexing a pseudo-random slice, a mix of
// computation and allocation — and returns its wall time in seconds, about
// 20 ms on a 2-vCPU VM.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	vals := make([]uint64, 1<<17)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = x
	}
	slices.Sort(vals)
	index := make(map[uint64]int)
	for i, v := range vals[:1<<14] {
		index[v] = i
	}
	return time.Since(start).Seconds()
}

// MeasureParallelConstruction runs the serial and the workers-wide parallel
// construction benchReps times each and reports the median runs in
// calibration units, their speedup in those units and the median
// calibration time. workers <= 0 selects GOMAXPROCS.
func MeasureParallelConstruction(e *Env, workers int) ParResult {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	var calib []float64
	res := ParResult{
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Workers:    workers,
		Sensors:    e.Net.NumSensors(),
		Records:    e.Dataset(0).Atypical.Len(),
		Serial:     e.medianStage(0, &calib),
		Parallel:   e.medianStage(workers, &calib),
	}
	slices.Sort(calib)
	res.Calib = calib[len(calib)/2]
	if p := res.Parallel.Units(0); p > 0 {
		res.Speedup = res.Serial.Units(0) / p
	}
	res.Metrics = e.queryMetrics()
	return res
}

// ParConstruct is the Fig. 15 companion the paper does not plot: offline
// construction cost as the worker pool widens. On a single-core host the
// rows degenerate to ≈1× — the speedup column is only meaningful at
// GOMAXPROCS ≥ 2.
func ParConstruct(e *Env) []*Table {
	t := &Table{
		ID:     "par-construct",
		Title:  "Parallel construction (seconds; AC extraction + integration + severity index vs workers)",
		Header: []string{"workers", "extract", "integrate", "severity", "total", "speedup"},
	}
	serial := e.parStage(0)
	t.AddRow("serial", serial.Extract, serial.Integrate, serial.Severity, serial.Total, 1.0)
	seen := map[int]bool{}
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		p := e.parStage(w)
		speedup := 0.0
		if p.Total > 0 {
			speedup = serial.Total / p.Total
		}
		t.AddRow(w, p.Extract, p.Integrate, p.Severity, p.Total, speedup)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; speedup = serial total / parallel total on this host", runtime.GOMAXPROCS(0)),
		"extraction and severity are byte-identical to serial; integration is the serial kernel in every row")
	return []*Table{t}
}
