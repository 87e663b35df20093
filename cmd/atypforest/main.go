// Command atypforest builds the atypical forest from record files produced
// by atypgen: it extracts atypical events per day (Algorithm 1), summarizes
// them into micro-clusters, and persists the materialized days.
//
// Usage:
//
//	atypforest -data data/ -out forest/ [-sensors 400] [-seed 42]
//	           [-deltad 1.5] [-deltat 15m] [-deltasim 0.5]
//
// The deployment parameters must match the ones used by atypgen so sensor
// ids resolve to the same topology; a record naming a sensor outside the
// deployment fails the build.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body; the return value is the process exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("atypforest", flag.ContinueOnError)
	var (
		data     = fs.String("data", "data", "directory of .rec files from atypgen")
		dir      = fs.String("out", "forest", "output directory for the forest")
		sensors  = fs.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed     = fs.Int64("seed", 42, "deployment seed (must match atypgen)")
		deltaD   = fs.Float64("deltad", 1.5, "distance threshold δd (miles)")
		deltaT   = fs.Duration("deltat", 15*time.Minute, "time interval threshold δt")
		deltaSim = fs.Float64("deltasim", 0.5, "similarity threshold δsim")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed = *sensors, *seed
	cfg.DeltaD, cfg.DeltaT, cfg.SimThreshold = *deltaD, *deltaT, *deltaSim
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		return fail(err)
	}
	datasets := catalog.List()
	if len(datasets) == 0 {
		return fail(fmt.Errorf("no datasets in %s (run atypgen first)", *data))
	}

	totalRecords := 0
	start := time.Now()
	for _, info := range datasets {
		rs, err := catalog.Read(info.Name)
		if err != nil {
			return fail(err)
		}
		// Serial ingest draws micro IDs in day order, so two builds from
		// one catalog write the same files.
		if err := sys.IngestCtx(context.Background(), rs); err != nil {
			return fail(fmt.Errorf("%s: %w", info.Name, err))
		}
		totalRecords += rs.Len()
		fmt.Fprintf(out, "%s: %d records\n", info.Name, rs.Len())
	}
	if err := sys.SaveForest(*dir); err != nil {
		return fail(err)
	}
	st := sys.Forest().Stats()
	fmt.Fprintf(out, "forest: %d days, %d micro-clusters from %d records in %s -> %s\n",
		st.Days, st.MicroTotal, totalRecords, time.Since(start).Round(time.Millisecond), *dir)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atypforest:", err)
	return 1
}
