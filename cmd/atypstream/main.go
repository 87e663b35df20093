// Command atypstream replays a record file through the online event
// processor, printing an alert line whenever a closing event exceeds the
// alert severity — the operations-center view of the data.
//
// Usage:
//
//	atypstream -data data -name d01 [-sensors 400] [-seed 42]
//	           [-deltad 1.5] [-deltat 15m] [-alert 2500] [-top 10]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body; the return value is the process exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("atypstream", flag.ContinueOnError)
	var (
		data    = fs.String("data", "data", "dataset directory (catalog)")
		name    = fs.String("name", "", "dataset name to replay (required)")
		sensors = fs.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed    = fs.Int64("seed", 42, "deployment seed (must match atypgen)")
		deltaD  = fs.Float64("deltad", 1.5, "distance threshold δd (miles)")
		deltaT  = fs.Duration("deltat", 15*time.Minute, "time interval threshold δt")
		alert   = fs.Float64("alert", 2500, "alert severity threshold (severity-min)")
		top     = fs.Int("top", 10, "recap: top-k closed events")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name == "" {
		return fail(fmt.Errorf("-name is required"))
	}

	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed, cfg.DeltaD, cfg.DeltaT = *sensors, *seed, *deltaD, *deltaT
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		return fail(err)
	}
	rr, closer, err := catalog.Open(*name)
	if err != nil {
		return fail(err)
	}
	defer closer()

	var closed []*atypical.Cluster
	alerts := 0
	proc, err := sys.NewStreamProcessor(func(c *atypical.Cluster) {
		closed = append(closed, c)
		if float64(c.Severity()) >= *alert {
			alerts++
			fmt.Fprintf(out, "ALERT %s\n", sys.Describe(c))
		}
	})
	if err != nil {
		return fail(err)
	}

	start := time.Now()
	for {
		r, ok := rr.Next()
		if !ok {
			break
		}
		if err := proc.Observe(r); err != nil {
			return fail(err)
		}
	}
	if err := rr.Err(); err != nil {
		return fail(err)
	}
	if err := proc.Flush(); err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(out, "\nreplayed %d records in %s (%.0f records/s): %d events closed, %d alerts\n",
		proc.Observed(), elapsed.Round(time.Millisecond),
		float64(proc.Observed())/elapsed.Seconds(), proc.Emitted(), alerts)

	sort.Slice(closed, func(i, j int) bool { return closed[i].Severity() > closed[j].Severity() })
	k := min(max(*top, 0), len(closed))
	fmt.Fprintf(out, "\ntop %d events of the replay:\n%s", k, sys.Ranking(closed[:k]))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atypstream:", err)
	return 1
}
