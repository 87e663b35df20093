// Command perfbench is the repository's benchmark: it generates a workload
// from a seed, drives it through the public facade (atypical.System) with the
// options atypserve runs with by default, checks every answer, and prints
// one JSON result line.
//
//	bash perfbench/run.sh --workload analyst|wire|live --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate single-client run times the calls into each layer from this
// package's own code and reports per-layer metrics. See README.md for why each
// workload exists and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// facts are the input and host facts stamped into every run's output.
type facts struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         int     `json:"trace"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"nproc"`
	GoVersion     string  `json:"go_version"`
	Sensors       int     `json:"sensors"`
	Records       int     `json:"records"`
	MicroClusters int     `json:"micro_clusters"`
	Requests      int     `json:"requests"`
	RunSeconds    float64 `json:"run_seconds"`
	MeasuredS     float64 `json:"measured_s"`
	GenerateS     float64 `json:"generate_s"`
}

// run carries the command-line settings into a workload.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	res   result
	facts facts
	// notes are printed before the result line (tables, mismatch details).
	notes []string
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares. Every
// workload reports all of endToEnd with --trace 0 and all of perLayer with
// --trace 1, so a metric is compared on every workload; figures that only
// some workloads have are printed as "# metric" lines before the result.
var (
	endToEnd = []string{"setup_s", "heap_mb", "ops_s", "p50_ms"}
	perLayer = []string{
		"cluster.extract_ms", "forest.append_ms", "cube.severity_ms",
		"cluster.integrate_p50_ms", "cluster.integrate_p99_ms",
		"cluster.integrate_inputs", "cluster.components", "cluster.max_component_share",
		"query.candidates", "query.gui_input_share", "cube.redzones_ms", "cube.redzones",
		"runtime.alloc_kb_per_op", "runtime.gc_cycles", "runtime.gc_pause_ms",
		"harness.trace_overhead_pct",
	}
)

// declared keeps the metrics named in names and returns the others as
// comment lines. It fails if a declared metric is missing or not a finite
// number, or if an end-to-end metric is not positive.
func declared(m map[string]metric, names []string, positive bool) (map[string]metric, []string, error) {
	keep := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := m[n]
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("metric %s was not measured", n)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, nil, fmt.Errorf("metric %s is %v", n, v.Value)
		case positive && v.Value <= 0:
			return nil, nil, fmt.Errorf("metric %s is %v, not positive", n, v.Value)
		}
		keep[n] = v
	}
	var rest []string
	for n, v := range m {
		if _, ok := keep[n]; !ok {
			rest = append(rest, fmt.Sprintf("# metric %s %.6g %s", n, v.Value, v.Unit))
		}
	}
	sort.Strings(rest)
	return keep, rest, nil
}

// workloads maps each --workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain, traced func(run) (*outcome, error)
}{
	"analyst": {runAnalyst, traceAnalyst},
	"wire":    {runWire, traceWire},
	"live":    {runLive, traceLive},
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		workload = flag.String("workload", "", "workload to run: analyst, wire or live")
		seed     = flag.Int64("seed", 1, "seed for the generated data and request lists")
		seconds  = flag.Float64("seconds", 10, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %v)\n", *workload, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r := run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	fn := w.plain
	if r.trace {
		fn = w.traced
	}
	out, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	names, positive := endToEnd, true
	if r.trace {
		names, positive = perLayer, false
	}
	kept, rest, err := declared(out.res.Metrics, names, positive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	out.res.Metrics = kept
	out.notes = append(out.notes, rest...)
	out.facts.Workload, out.facts.Seed, out.facts.RunSeconds = r.workload, r.seed, r.seconds
	if r.trace {
		out.facts.Trace = 1
	}
	out.facts.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.facts.NumCPU = runtime.NumCPU()
	out.facts.GoVersion = runtime.Version()
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fb, _ := json.Marshal(out.facts)
	fmt.Printf("# facts %s\n", fb)
	b, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: answer check failed")
		return 1
	}
	return 0
}

// elapsedSince returns seconds since t.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
