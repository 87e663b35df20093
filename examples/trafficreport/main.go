// Trafficreport builds the transportation-department monthly congestion
// report from Example 1 of the paper: where congestions usually happen,
// when they start, which segments and periods are most serious — plus the
// weekday/weekend breakdown enabled by the forest's alternative aggregation
// paths and a comparison of the three query strategies.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/report"
)

func main() {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 300
	cfg.DaysPerMonth = 28
	cfg.DeltaS = 0.02

	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.IngestMonthsCtx(context.Background(), 1); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Monthly congestion report ===")
	res, err := sys.Run(context.Background(), atypical.QueryRequest{Days: 28, Strategy: atypical.Guided})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	sort.Slice(rep.Significant, func(i, j int) bool {
		return rep.Significant[i].Severity() > rep.Significant[j].Severity()
	})
	fmt.Printf("%d significant congestion clusters this month:\n", len(rep.Significant))
	for rank, c := range rep.Significant {
		fmt.Printf("%2d. %s\n", rank+1, sys.Describe(c))
	}

	// Weekday vs weekend: the forest integrates the same micro-clusters
	// along an alternative aggregation path (Section III-C).
	fmt.Println("\n=== Weekday vs weekend severity ===")
	buckets := sys.Forest().IntegratePath(forest.WeekdayWeekendPath)
	var weekday, weekend atypical.Severity
	for b, clusters := range buckets {
		for _, c := range clusters {
			if b%2 == 0 {
				weekday += c.Severity()
			} else {
				weekend += c.Severity()
			}
		}
	}
	fmt.Printf("weekday congestion: %.0f severity-min\n", float64(weekday))
	fmt.Printf("weekend congestion: %.0f severity-min (%.0f%% of weekday)\n",
		float64(weekend), 100*float64(weekend)/float64(weekday))

	// Strategy comparison on the same query: how much work red-zone
	// guidance saves over exhaustive integration.
	fmt.Println("\n=== Query strategy comparison (28-day city query) ===")
	fmt.Printf("%-9s %8s %8s %12s %8s\n", "strategy", "inputs", "macros", "significant", "time")
	for _, s := range []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided} {
		sres, err := sys.Run(context.Background(), atypical.QueryRequest{Days: 28, Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		r := sres.Report
		fmt.Printf("%-9s %8d %8d %12d %8s\n", s, r.InputMicros, len(r.Macros), len(r.Significant), r.Elapsed.Round(1e6))
	}

	// Drill-down: the worst cluster's temporal profile by hour of day.
	if len(rep.Significant) > 0 {
		worst := rep.Significant[0]
		fmt.Println("\n=== Hourly profile of the worst cluster ===")
		fmt.Print(report.HourHistogram(sys.Spec(), worst, 40))
	}
}
