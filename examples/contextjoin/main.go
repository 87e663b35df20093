// Contextjoin demonstrates the Section V-D extension: joining context
// dimensions onto atypical clusters. A synthetic weather dimension (rainy
// vs dry days) joins the temporal dimension by date, an accident-report
// dimension joins by time and location, and the weekday/weekend dimension
// comes built in — letting the analyst ask "which congestions are
// weather-related?" and "which clusters contain a reported accident?".
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	atypical "github.com/cpskit/atypical"
	ctxdim "github.com/cpskit/atypical/internal/context"
	"github.com/cpskit/atypical/internal/geo"
)

func main() {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 250
	cfg.DaysPerMonth = 28
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.IngestMonthsCtx(context.Background(), 1); err != nil {
		log.Fatal(err)
	}
	spec := sys.Spec()

	// Synthesize the context dimensions: rain on ~30% of days, ten
	// accident reports at random sensors during the month.
	rng := rand.New(rand.NewSource(3))
	var rainyDays []int
	for d := 0; d < cfg.DaysPerMonth; d++ {
		if rng.Float64() < 0.3 {
			rainyDays = append(rainyDays, d)
		}
	}
	weather := ctxdim.WeatherDimension(spec, rainyDays)
	weekpart := ctxdim.WeekpartDimension(spec)

	var reports []ctxdim.Report
	for i := 0; i < 10; i++ {
		s := sys.Network().Sensors[rng.Intn(sys.Network().NumSensors())]
		day := rng.Intn(cfg.DaysPerMonth)
		reports = append(reports, ctxdim.Report{
			ID:           i + 1,
			Window:       atypical.Window(day*spec.PerDay() + rng.Intn(spec.PerDay())),
			Loc:          s.Loc,
			RadiusMi:     2,
			SlackWindows: 3,
		})
	}
	accidents := &ctxdim.ReportDimension{
		DimName: "accidents",
		Reports: reports,
		Locate:  func(s atypical.SensorID) geo.Point { return sys.Network().Sensor(s).Loc },
	}

	res, err := sys.Run(context.Background(), atypical.QueryRequest{Days: cfg.DaysPerMonth})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Report
	sort.Slice(rep.Significant, func(i, j int) bool {
		return rep.Significant[i].Severity() > rep.Significant[j].Severity()
	})
	fmt.Printf("%d significant clusters; joining %d rainy days and %d accident reports\n\n",
		len(rep.Significant), len(rainyDays), len(reports))

	fmt.Println("=== Weather join (temporal dimension ⋈ date) ===")
	for i, c := range rep.Significant {
		b := ctxdim.Join(c, weather)
		tag := "dry-weather pattern"
		if b.Share("rain") > b.Share("dry") {
			tag = "RAIN-CORRELATED"
		}
		fmt.Printf("%2d. severity %.0f: rain %.0f%%, dry %.0f%% -> %s\n",
			i+1, float64(c.Severity()), 100*b.Share("rain"), 100*b.Share("dry"), tag)
	}

	fmt.Println("\n=== Weekpart join ===")
	for i, c := range rep.Significant {
		b := ctxdim.Join(c, weekpart)
		v, share := b.Dominant()
		fmt.Printf("%2d. severity %.0f: %.0f%% %s\n", i+1, float64(c.Severity()), 100*share, v)
	}

	fmt.Println("\n=== Accident join (spatial+temporal dimensions ⋈ report) ===")
	for i, c := range rep.Significant {
		hits := accidents.Match(c)
		ids := make([]int, len(hits))
		for k, h := range hits {
			ids[k] = h.ID
		}
		fmt.Printf("%2d. severity %.0f: %d accident report(s) inside the cluster %v\n",
			i+1, float64(c.Severity()), len(hits), ids)
	}
}
