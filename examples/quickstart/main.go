// Quickstart: generate one week of synthetic traffic data, build the
// atypical forest, and ask for the significant congestion clusters — the
// minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"

	atypical "github.com/cpskit/atypical"
)

func main() {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 250
	cfg.DaysPerMonth = 7

	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d sensors on %d highways\n",
		sys.Network().NumSensors(), len(sys.Network().Highways))

	// Generate a week of data and run offline model construction: atypical
	// events are extracted per day and summarized into micro-clusters.
	ds := sys.GenerateMonth(0)
	fmt.Printf("week of data: %d atypical records (%.1f%% of readings)\n",
		ds.Atypical.Len(), ds.AtypicalPct())
	if err := sys.IngestCtx(context.Background(), ds.Atypical); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forest: %d micro-clusters across %d days\n\n",
		sys.Forest().Stats().MicroTotal, sys.Forest().Stats().Days)

	// Online query: the significant clusters of the whole city this week,
	// retrieved with red-zone guided clustering.
	res, err := sys.Run(context.Background(), atypical.QueryRequest{Days: 7, Strategy: atypical.Guided})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	fmt.Printf("query integrated %d of %d micro-clusters (%d red zones), %d significant clusters:\n",
		rep.InputMicros, rep.CandidateMicros, rep.RedZones, len(rep.Significant))
	for _, c := range rep.Significant {
		fmt.Println("  " + sys.Describe(c))
	}
}
