// Command atypbench runs the experiment suite reproducing every table and
// figure of the paper's evaluation (Section V) and prints the results as
// aligned text tables (or CSV).
//
// Usage:
//
//	atypbench [-exp id] [-csv] [-sensors 400] [-months 12] [-querymonths 3]
//	          [-days 28] [-seed 42] [-deltas 0.02] [-deltad 1.5] [-deltat 15m]
//	          [-deltasim 0.5] [-balance avg]
//	          [-parjson BENCH_parallel.json] [-workers 0] [-maxregress 0.25]
//	          [-benchshards 2]
//
// -exp picks one experiment id of experiments.Order (atypbench -h lists
// them): the paper's figures, par-construct, the abl-* ablations and the
// ext-* extensions. Without -exp, all experiments run in that order.
// Fig. 15 also emits Fig. 16 (they share a sweep).
//
// In -parjson mode the measurement runs in three child processes, one after
// another. In each, the serial and the parallel construction run seven
// times, each run after a collection and after timing a fixed calibration
// workload; the process reports, per construction, the run whose total over
// its own calibration time (the calibrated value) is the median, with that
// calibration time as the stage's calib_s, and the median calibration time
// as the top-level calib_s. The artifact keeps, per figure, the process
// with the fastest calibrated value; the top-level calib_s, host facts and
// metrics come from the process with the fastest serial construction.
// -parjson - is one such child: it measures in-process and writes the JSON
// to stdout, ungated. The previous result at the target
// path (if any) is preserved as <path minus .json>.prev.json and compared
// against the fresh run: a delta section reports the serial/parallel
// construction time and speedup movement, and the run exits non-zero when
// either construction's calibrated value regressed by
// more than -maxregress (fraction; 0 disables the gate) — the CI perf gate.
// Dividing by the calibration time takes out the host's speed, which drifts
// between processes on a shared VM, and leaves the code's. The gate applies
// only when the previous artifact was measured on the same host facts
// (GOMAXPROCS, CPU count, Go version) and carries calib_s; otherwise the
// deltas are printed under a "not gated" line and the run exits 0.
// -benchshards additionally times the same Guided query unsharded and
// scatter-gathered across that many in-process shards, alternating, 35
// times each (equivalence-checked; a mismatch fails the run), and holds the
// ratio of their fastest times — the scatter-gather overhead, measured in
// one process; the artifact keeps the smallest ratio of the three — to the
// same -maxregress budget; artifacts from before the field existed simply
// skip the comparison.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/experiments"
	"github.com/cpskit/atypical/internal/faultfs"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id ("+strings.Join(experiments.Order, ", ")+"); empty = all")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		sensors     = flag.Int("sensors", 400, "approximate deployment size")
		months      = flag.Int("months", 12, "datasets for the construction sweep (figs 15-16)")
		qmonths     = flag.Int("querymonths", 3, "datasets ingested for query experiments (figs 17-19)")
		days        = flag.Int("days", 28, "days per dataset")
		seed        = flag.Int64("seed", 42, "workload seed")
		deltaS      = flag.Float64("deltas", 0.02, "severity threshold δs")
		deltaD      = flag.Float64("deltad", 1.5, "distance threshold δd (miles)")
		deltaT      = flag.Duration("deltat", 15*time.Minute, "time interval threshold δt")
		deltaSim    = flag.Float64("deltasim", 0.5, "similarity threshold δsim")
		balance     = flag.String("balance", "avg", "balance function g (avg, max, min, geo, har)")
		parJSON     = flag.String("parjson", "", "quick mode: run the serial-vs-parallel construction benchmark, write JSON to this path, and exit")
		workers     = flag.Int("workers", 0, "worker count for -parjson (0 = GOMAXPROCS)")
		maxRegress  = flag.Float64("maxregress", 0.25, "fail -parjson runs whose serial or parallel total regressed by more than this fraction vs the previous JSON (0 disables)")
		benchShards = flag.Int("benchshards", 2, "shard fan-out for the -parjson sharded-query benchmark (0 disables)")
	)
	flag.Parse()

	bal, err := atypical.ParseBalance(*balance)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{
		Config: atypical.Config{
			Sensors:      *sensors,
			Seed:         *seed,
			DaysPerMonth: *days,
			DeltaD:       *deltaD,
			DeltaT:       *deltaT,
			DeltaS:       *deltaS,
			SimThreshold: *deltaSim,
		},
		Months:      *months,
		QueryMonths: *qmonths,
		Balance:     bal,
	}
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fatal(err)
	}
	if *parJSON == "-" {
		res := experiments.MeasureParallelConstruction(env, *workers)
		if *benchShards > 0 {
			res.ShardQuery = experiments.MeasureShardedQuery(env, *benchShards)
			if !res.ShardQuery.Identical {
				fatal(fmt.Errorf("sharded query (%d shards) diverged from the unsharded answer", *benchShards))
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	out := os.Stdout
	fmt.Fprintf(out, "# deployment: %d sensors, %d highways, %d regions; seed %d\n\n",
		env.Net.NumSensors(), len(env.Net.Highways), env.Net.Grid.NumRegions(), cfg.Seed)

	if *parJSON != "" {
		prev, prevData := readPrevious(*parJSON)
		runs, err := measureInProcesses(parProcs)
		if err != nil {
			fatal(err)
		}
		res := fastest(runs)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := faultfs.WriteFileAtomic(faultfs.OS{}, *parJSON, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "# parallel construction: %d workers, %.2fx speedup (serial %.3fs, parallel %.3fs; fastest of %d processes) -> %s\n",
			res.Workers, res.Speedup, res.Serial.Total, res.Parallel.Total, len(runs), *parJSON)
		if sq := res.ShardQuery; sq != nil {
			fmt.Fprintf(out, "# sharded query: %d shards, unsharded %.3fs vs sharded %.3fs, answers identical\n",
				sq.Shards, sq.UnshardedS, sq.ShardedS)
		}
		if prev != nil {
			prevPath := prevPath(*parJSON)
			if err := faultfs.WriteFileAtomic(faultfs.OS{}, prevPath, prevData, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(out, "\n# delta vs previous run (%s):\n", prevPath)
			switch {
			case !sameHost(prev, &res):
				fmt.Fprintf(out, "# baseline from a different host, not gated (gomaxprocs %d -> %d, num_cpu %d -> %d, go %q -> %q)\n",
					prev.GOMAXPROCS, res.GOMAXPROCS, prev.NumCPU, res.NumCPU, prev.GoVersion, res.GoVersion)
			case prev.Calib <= 0:
				fmt.Fprintf(out, "# baseline without calib_s, not gated\n")
			}
			fmt.Fprintf(out, "#   serial    %.3fs -> %.3fs  (%+.1f%%)\n",
				prev.Serial.Total, res.Serial.Total, deltaPct(prev.Serial.Total, res.Serial.Total))
			fmt.Fprintf(out, "#   parallel  %.3fs -> %.3fs  (%+.1f%%)\n",
				prev.Parallel.Total, res.Parallel.Total, deltaPct(prev.Parallel.Total, res.Parallel.Total))
			fmt.Fprintf(out, "#   speedup   %.2fx -> %.2fx\n", prev.Speedup, res.Speedup)
			if prev.Calib > 0 {
				ps, cs := prev.Serial.Units(prev.Calib), res.Serial.Units(res.Calib)
				pp, cp := prev.Parallel.Units(prev.Calib), res.Parallel.Units(res.Calib)
				fmt.Fprintf(out, "#   calib     %.4fs -> %.4fs  (%+.1f%%)\n", prev.Calib, res.Calib, deltaPct(prev.Calib, res.Calib))
				fmt.Fprintf(out, "#   in calib units: serial %.2f -> %.2f (%+.1f%%), parallel %.2f -> %.2f (%+.1f%%)\n",
					ps, cs, deltaPct(ps, cs), pp, cp, deltaPct(pp, cp))
			}
			if p, c := prev.ShardQuery, res.ShardQuery; p != nil && c != nil && p.UnshardedS > 0 && c.UnshardedS > 0 {
				fmt.Fprintf(out, "#   sharded / unsharded query: %.2fx -> %.2fx (%+.1f%%)\n",
					p.ShardedS/p.UnshardedS, c.ShardedS/c.UnshardedS, deltaPct(p.ShardedS/p.UnshardedS, c.ShardedS/c.UnshardedS))
			}
			if msg := gate(prev, &res, *maxRegress); msg != "" {
				fatal(fmt.Errorf("performance regression beyond %.0f%%: %s", *maxRegress*100, msg))
			}
		}
		return
	}

	ids := experiments.Order
	if *exp != "" {
		if _, ok := experiments.Registry[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		ids = []string{*exp}
	}
	for _, id := range ids {
		start := time.Now()
		tables := experiments.Registry[id](env)
		for _, tab := range tables {
			if *csv {
				fmt.Fprintf(out, "# %s: %s\n%s\n", tab.ID, tab.Title, tab.CSV())
			} else {
				fmt.Fprintln(out, tab.Render())
			}
		}
		fmt.Fprintf(out, "# %s completed in %s\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// parProcs is how many child processes a -parjson run measures in. One
// process's calibrated construction time spreads by about a quarter between
// processes on a 2-vCPU VM, as wide as the regression budget, so a single
// process can land a baseline or a check at either end; the fastest of
// three rarely lands at the slow end.
const parProcs = 3

// measureInProcesses runs the -parjson measurement in n child processes of
// this binary, one after another (-parjson - with the other flags as
// given), and returns their results.
func measureInProcesses(n int) ([]experiments.ParResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "parjson" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	args = append(args, "-parjson=-")
	runs := make([]experiments.ParResult, n)
	for i := range runs {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		data, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measurement process %d of %d: %w", i+1, n, err)
		}
		if err := json.Unmarshal(data, &runs[i]); err != nil {
			return nil, fmt.Errorf("measurement process %d of %d: %w", i+1, n, err)
		}
	}
	return runs, nil
}

// fastest combines the measurement processes' results per figure, keeping
// the smallest calibrated value: each construction stage (with its own
// calibration run) from the process where it took the fewest calibration
// units, and the sharded query from the process with the smallest
// sharded/unsharded ratio. Host facts, calib_s and metrics come from the
// process with the fastest serial construction; the speedup is the ratio of
// the kept stages in calibration units.
func fastest(runs []experiments.ParResult) experiments.ParResult {
	res := slices.MinFunc(runs, func(a, b experiments.ParResult) int {
		return cmp.Compare(a.Serial.Units(0), b.Serial.Units(0))
	})
	res.Parallel = slices.MinFunc(runs, func(a, b experiments.ParResult) int {
		return cmp.Compare(a.Parallel.Units(0), b.Parallel.Units(0))
	}).Parallel
	res.Speedup = 0
	if p := res.Parallel.Units(0); p > 0 {
		res.Speedup = res.Serial.Units(0) / p
	}
	if res.ShardQuery != nil {
		res.ShardQuery = slices.MinFunc(runs, func(a, b experiments.ParResult) int {
			return cmp.Compare(a.ShardQuery.ShardedS/a.ShardQuery.UnshardedS, b.ShardQuery.ShardedS/b.ShardQuery.UnshardedS)
		}).ShardQuery
	}
	return res
}

// readPrevious loads the prior -parjson result at path; a missing or
// unparseable file (first run, format change) yields nil rather than an
// error — there is simply nothing to compare against.
func readPrevious(path string) (*experiments.ParResult, []byte) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	var prev experiments.ParResult
	if err := json.Unmarshal(data, &prev); err != nil || prev.Serial.Total <= 0 || prev.Parallel.Total <= 0 {
		return nil, nil
	}
	return &prev, data
}

// prevPath names the preserved copy of the previous result:
// BENCH_parallel.json -> BENCH_parallel.prev.json.
func prevPath(path string) string {
	const ext = ".json"
	if len(path) > len(ext) && path[len(path)-len(ext):] == ext {
		return path[:len(path)-len(ext)] + ".prev" + ext
	}
	return path + ".prev"
}

// deltaPct is the percentage change from prev to cur.
func deltaPct(prev, cur float64) float64 {
	return (cur - prev) / prev * 100
}

// sameHost reports whether two artifacts were measured under the same host
// facts; only then are their wall-clock totals comparable.
func sameHost(a, b *experiments.ParResult) bool {
	return a.GOMAXPROCS == b.GOMAXPROCS && a.NumCPU == b.NumCPU && a.GoVersion == b.GoVersion
}

// gate is the -maxregress verdict: the regression message when the gate is
// on (allowed > 0), both artifacts come from the same host and carry a
// calibration time, and cur slowed down beyond budget; "" otherwise.
func gate(prev, cur *experiments.ParResult, allowed float64) string {
	if allowed <= 0 || !sameHost(prev, cur) || prev.Calib <= 0 || cur.Calib <= 0 {
		return ""
	}
	return regression(prev, cur, allowed)
}

// regression names the first measure that grew by more than the allowed
// fraction, or "" when all are within budget. The measures are each
// construction total in units of its calibration run, and the
// sharded query's time in units of the unsharded query's.
func regression(prev *experiments.ParResult, cur *experiments.ParResult, allowed float64) string {
	construction := func(what string, was, is experiments.ParStage) string {
		w, i := was.Units(prev.Calib), is.Units(cur.Calib)
		if i <= w*(1+allowed) {
			return ""
		}
		return fmt.Sprintf("%s %.3fs -> %.3fs (%.2f -> %.2f calib units)", what, was.Total, is.Total, w, i)
	}
	if msg := construction("serial construction", prev.Serial, cur.Serial); msg != "" {
		return msg
	}
	if msg := construction("parallel construction", prev.Parallel, cur.Parallel); msg != "" {
		return msg
	}
	// Artifacts written before the sharded-query benchmark existed (or runs
	// with -benchshards 0) carry no ShardQuery; skip rather than fail.
	if p, c := prev.ShardQuery, cur.ShardQuery; p != nil && c != nil && p.UnshardedS > 0 && c.UnshardedS > 0 &&
		c.ShardedS/c.UnshardedS > p.ShardedS/p.UnshardedS*(1+allowed) {
		return fmt.Sprintf("sharded query %.2fx -> %.2fx the unsharded time (%.4fs -> %.4fs)",
			p.ShardedS/p.UnshardedS, c.ShardedS/c.UnshardedS, p.ShardedS, c.ShardedS)
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atypbench:", err)
	os.Exit(1)
}
