// Command atypforest builds the atypical forest from record files produced
// by atypgen: it extracts atypical events per day (Algorithm 1), summarizes
// them into micro-clusters, and persists the materialized days.
//
// Usage:
//
//	atypforest -data data/ -out forest/ [-sensors 400] [-seed 42]
//	           [-deltad 1.5] [-deltat 15m]
//
// The deployment parameters must match the ones used by atypgen so sensor
// ids resolve to the same topology.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/storage"
	"github.com/cpskit/atypical/internal/traffic"
)

func main() {
	var (
		data     = flag.String("data", "data", "directory of .rec files from atypgen")
		out      = flag.String("out", "forest", "output directory for the forest")
		sensors  = flag.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed     = flag.Int64("seed", 42, "deployment seed (must match atypgen)")
		deltaD   = flag.Float64("deltad", 1.5, "distance threshold δd (miles)")
		deltaT   = flag.Duration("deltat", 15*time.Minute, "time interval threshold δt")
		deltaSim = flag.Float64("deltasim", 0.5, "similarity threshold δsim")
	)
	flag.Parse()

	netCfg := traffic.ScaledConfig(*sensors)
	netCfg.Seed = *seed
	net := traffic.GenerateNetwork(netCfg)
	spec := cps.DefaultSpec()

	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	neighbors := index.NewNeighborIndex(locs, *deltaD).NeighborLists()
	maxGap := cluster.MaxWindowGap(*deltaT, spec.Width)

	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		fatal(err)
	}
	datasets := catalog.List()
	if len(datasets) == 0 {
		fatal(fmt.Errorf("no datasets in %s (run atypgen first)", *data))
	}

	var idgen cluster.IDGen
	opts := cluster.IntegrateOptions{
		SimThreshold: *deltaSim,
		Balance:      cluster.Arithmetic,
		Period:       cps.Window(spec.PerDay()),
	}
	f := forest.New(spec, &idgen, opts, 28)
	totalRecords, totalMicros := 0, 0
	start := time.Now()
	for _, info := range datasets {
		rs, err := catalog.Read(info.Name)
		if err != nil {
			fatal(err)
		}
		// Days in ascending order: micro IDs are drawn in extraction order
		// and saved, so two builds from one catalog write the same files.
		cps.ForEachDay(rs.SplitByDay(spec), func(day int, dayRecs []cps.Record) {
			micros := cluster.ExtractMicroClusters(&idgen, dayRecs, neighbors, maxGap)
			f.AddDay(day, micros)
			totalMicros += len(micros)
		})
		totalRecords += rs.Len()
		fmt.Fprintf(os.Stdout, "%s: %d records\n", info.Name, rs.Len())
	}
	if err := f.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stdout, "forest: %d days, %d micro-clusters from %d records in %s -> %s\n",
		len(f.Days()), totalMicros, totalRecords, time.Since(start).Round(time.Millisecond), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atypforest:", err)
	os.Exit(1)
}
