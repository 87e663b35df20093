// Opscenter simulates a traffic operations center using the Section VII
// extensions end to end: records stream in window by window, events are
// maintained online and alerts raised as significant clusters close, sensor
// trustworthiness is audited, and a next-day forecast is trained from the
// accumulated forest.
package main

import (
	"fmt"
	"log"
	"sort"

	atypical "github.com/cpskit/atypical"
)

func main() {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 250
	cfg.DaysPerMonth = 14
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	spec := sys.Spec()

	// Alert threshold: a closed event covering many sensor-minutes is worth
	// an operator's attention immediately.
	const alertSeverity = 2500

	fmt.Println("=== Live stream: events close, alerts fire ===")
	alerts := 0
	var closed []*atypical.Cluster
	proc, err := sys.NewStreamProcessor(func(c *atypical.Cluster) {
		closed = append(closed, c)
		if float64(c.Severity()) >= alertSeverity {
			alerts++
			span := c.WindowSpan()
			if alerts <= 8 {
				fmt.Printf("ALERT %2d  %s  %3d sensors  %6.0f severity-min\n",
					alerts, spec.Format(span.From), len(c.SF), float64(c.Severity()))
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range ds.Atypical.Records() {
		if err := proc.Observe(r); err != nil {
			log.Fatal(err)
		}
	}
	if err := proc.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("... stream done: %d records, %d events closed, %d alerts\n\n",
		proc.Observed(), proc.Emitted(), alerts)

	// Sensor audit: which detectors report atypical readings nobody nearby
	// confirms?
	fmt.Println("=== Sensor trust audit ===")
	scores, err := sys.TrustScores(ds.Atypical)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].Trust < scores[j].Trust })
	fmt.Printf("%d reporting sensors; least corroborated:\n", len(scores))
	for i := 0; i < 5 && i < len(scores); i++ {
		s := scores[i]
		fmt.Printf("  sensor %4d: trust %.2f (%d/%d corroborated)\n",
			s.Sensor, s.Trust, s.Corroborated, s.Records)
	}

	// Build the forest from the streamed clusters and forecast tomorrow.
	fmt.Println("\n=== Next-day forecast from 10 training days ===")
	if err := sys.IngestClusters(closed); err != nil {
		log.Fatal(err)
	}
	model, err := sys.TrainPredictor(0, 10, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d recurring patterns learned; expected hotspots tomorrow:\n", len(model.Patterns()))
	for _, s := range model.TopSensors(5) {
		sensor := sys.Network().Sensor(s)
		hw := sys.Network().Highways[sensor.Highway]
		fmt.Printf("  %s mile %.1f (sensor %d)\n", hw.Name, sensor.MilePost, s)
	}

	// Score the forecast against the real days 10-13.
	byDay := ds.Atypical.SplitByDay(spec)
	fmt.Println("\nforecast vs realized days:")
	for day := 10; day < 14; day++ {
		out := model.Evaluate(byDay[day], 40)
		kind := "weekday"
		if day%7 >= 5 {
			kind = "weekend"
		}
		fmt.Printf("  day %2d (%s): precision@40 %.2f, severity coverage %.2f\n",
			day, kind, out.PrecisionAtK, out.SeverityCoverage)
	}
}
