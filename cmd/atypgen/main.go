// Command atypgen generates synthetic monthly CPS datasets — the stand-in
// for the paper's PeMS data — and writes them as binary record files.
//
// Usage:
//
//	atypgen -out data/ [-sensors 400] [-months 12] [-days 28] [-seed 42]
//
// Each month m becomes data/d<m+1>.rec (the atypical record stream). A
// summary line per dataset is printed, mirroring the paper's Fig. 14 table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body; the return value is the process exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("atypgen", flag.ContinueOnError)
	var (
		dir     = fs.String("out", "data", "output directory")
		sensors = fs.Int("sensors", 400, "approximate deployment size")
		months  = fs.Int("months", 12, "number of monthly datasets")
		days    = fs.Int("days", 28, "days per month")
		seed    = fs.Int64("seed", 42, "generation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed, cfg.DaysPerMonth = *sensors, *seed, *days
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	catalog, err := storage.OpenCatalog(*dir)
	if err != nil {
		return fail(err)
	}

	net := sys.Network()
	fmt.Fprintf(out, "deployment: %d sensors on %d highways\n", net.NumSensors(), len(net.Highways))
	fmt.Fprintf(out, "%-8s %10s %12s %10s %8s %10s\n", "dataset", "sensors", "readings", "atypical%", "events", "bytes")
	for m := 0; m < *months; m++ {
		ds := sys.GenerateMonth(m)
		info, err := catalog.Write(fmt.Sprintf("d%02d", m+1), ds.Atypical)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "%-8s %10d %12d %9.1f%% %8d %10d\n",
			info.Name, net.NumSensors(), ds.NumReadings, ds.AtypicalPct(), len(ds.Truth), info.Bytes)
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atypgen:", err)
	return 1
}
