// Command atypquery answers analytical queries Q(W, T) against a forest
// built by atypforest, printing the significant atypical clusters with
// their spatial and temporal profile — the Example 1 questions: where the
// congestions happen, when they start, and which segment is most serious.
//
// Usage:
//
//	atypquery -forest forest/ -data data/ -from 0 -days 7
//	          [-strategy gui] [-deltas 0.02] [-sensors 400] [-seed 42]
//	          [-minlat x -minlon x -maxlat x -maxlon x]
//	          [-shards 0] [-shardpeers url,url] [-explain] [-explainjson]
//
// -shards n answers the query scatter-gather across n in-process shards
// (the loaded forest is partitioned by home region) instead of one pass
// over the whole forest; the answer is byte-identical either way, so the
// flag exists to exercise and time the sharded path from the CLI.
// -shardpeers scatters to remote shard servers instead (atypserve
// -shardserve processes over the same deployment configuration); the run
// executes under a root span whose traceparent is injected on every shard
// call, so the printed trace ID finds the scatter on the servers'
// /debug/traces.
//
// -explain prints the run's EXPLAIN table after the report: strategy,
// significance bound arithmetic, per-stage timings, pruning and red-zone
// accounting, merge-tree shape, and per-macro significance verdicts.
// -explainjson prints the same record as indented JSON instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/cube"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/report"
	"github.com/cpskit/atypical/internal/shard"
	"github.com/cpskit/atypical/internal/storage"
	"github.com/cpskit/atypical/internal/traffic"
)

func main() {
	var (
		forestDir   = flag.String("forest", "forest", "directory of a saved forest")
		data        = flag.String("data", "data", "directory of .rec files (for the red-zone severity index)")
		from        = flag.Int("from", 0, "first day of the query range")
		days        = flag.Int("days", 7, "number of days in the query range")
		strat       = flag.String("strategy", "gui", "query strategy: all, pru or gui")
		deltaS      = flag.Float64("deltas", 0.02, "severity threshold δs")
		deltaSim    = flag.Float64("deltasim", 0.5, "similarity threshold δsim")
		sensors     = flag.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed        = flag.Int64("seed", 42, "deployment seed (must match atypgen)")
		minLat      = flag.Float64("minlat", 0, "spatial range: south edge (0 = whole city)")
		minLon      = flag.Float64("minlon", 0, "spatial range: west edge")
		maxLat      = flag.Float64("maxlat", 0, "spatial range: north edge")
		maxLon      = flag.Float64("maxlon", 0, "spatial range: east edge")
		shards      = flag.Int("shards", 0, "scatter-gather the query across n in-process shards (0 unsharded)")
		shardPeers  = flag.String("shardpeers", "", "comma-separated shard server base URLs: scatter the candidates stage to remote atypserve -shardserve processes")
		showMap     = flag.Bool("map", false, "print the region severity map with red zones")
		explain     = flag.Bool("explain", false, "print the query EXPLAIN table after the report")
		explainJSON = flag.Bool("explainjson", false, "print the query EXPLAIN record as JSON after the report")
	)
	flag.Parse()

	strategy, err := parseStrategy(*strat)
	if err != nil {
		fatal(err)
	}
	netCfg := traffic.ScaledConfig(*sensors)
	netCfg.Seed = *seed
	net := traffic.GenerateNetwork(netCfg)
	spec := cps.DefaultSpec()

	var idgen cluster.IDGen
	opts := cluster.IntegrateOptions{
		SimThreshold: *deltaSim,
		Balance:      cluster.Arithmetic,
		Period:       cps.Window(spec.PerDay()),
	}
	f, err := forest.Load(*forestDir, spec, &idgen, opts, 28)
	if err != nil {
		fatal(err)
	}
	// Cluster IDs in the loaded forest may collide with fresh ones; skip
	// the generator past a safe point.
	for i := 0; i < 1_000_000; i++ {
		idgen.Next()
	}

	sev := cube.NewSeverityIndex(net, spec)
	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		fatal(err)
	}
	for _, info := range catalog.List() {
		rs, err := catalog.Read(info.Name)
		if err != nil {
			fatal(err)
		}
		sev.Add(rs.Records())
	}

	engine := &query.Engine{Net: net, Forest: f, Severity: sev, Gen: &idgen}
	switch {
	case *shardPeers != "":
		var backends []shard.Backend
		for i, base := range strings.Split(*shardPeers, ",") {
			base = strings.TrimSpace(base)
			if base == "" {
				fatal(fmt.Errorf("-shardpeers: empty URL at position %d", i))
			}
			backends = append(backends, shard.NewHTTP(fmt.Sprintf("shard%d", i), base, nil))
		}
		engine.Scatterer = shard.NewCoordinator(backends, nil)
	case *shards > 0:
		m, err := shard.NewMap(net.Grid, *shards)
		if err != nil {
			fatal(err)
		}
		set := shard.NewSet(m, net, spec, &idgen, opts, 28)
		for _, day := range f.Days() {
			set.AppendDay(day, f.Day(day))
		}
		engine.Scatterer = shard.NewCoordinator(set.Backends(), nil)
	}
	var q query.Query
	if *maxLat != 0 || *maxLon != 0 {
		box := geo.BBox{Min: geo.Point{Lat: *minLat, Lon: *minLon}, Max: geo.Point{Lat: *maxLat, Lon: *maxLon}}
		q = query.BoxQuery(net, spec, box, *from, *days, *deltaS)
	} else {
		q = query.CityQuery(net, spec, *from, *days, *deltaS)
	}
	ctx := context.Background()
	var rootSpan *obs.Span
	if *shardPeers != "" {
		// Remote scatter runs under a root span with a discard exporter: the
		// span is not retained here, but the scatter's HTTP calls inject its
		// traceparent, so the shard servers stitch this run into their own
		// /debug/traces under the trace ID printed below.
		ctx = obs.WithExporter(ctx, func(obs.Span) {})
		ctx, rootSpan = obs.Start(ctx, "atypquery.query")
	}
	var exp *query.Explain
	if *explain || *explainJSON {
		ctx, exp = query.WithExplain(ctx)
	}
	res, err := engine.RunCtx(ctx, q, strategy)
	rootSpan.End()
	if err != nil {
		fatal(err)
	}

	out := os.Stdout
	fmt.Fprintf(out, "query: days [%d, %d), %d regions, strategy %s, δs=%.3g (bound %.0f severity-min)\n",
		*from, *from+*days, len(q.Regions), res.Strategy, *deltaS, float64(res.Bound))
	if rootSpan != nil {
		fmt.Fprintf(out, "trace: %s (find the scatter on the shard servers' /debug/traces)\n", rootSpan.TraceHex())
	}
	fmt.Fprintf(out, "inputs: %d of %d micro-clusters", res.InputMicros, res.CandidateMicros)
	if strategy == query.Gui {
		fmt.Fprintf(out, " (%d red zones)", res.RedZones)
	}
	fmt.Fprintf(out, "; %d macro-clusters, %d significant; %s\n",
		len(res.Macros), len(res.Significant), res.Elapsed.Round(time.Millisecond))
	if res.Partial {
		fmt.Fprintf(out, "PARTIAL ANSWER: shards %v failed after retry\n", res.FailedShards)
	}
	fmt.Fprintln(out)

	fmt.Fprint(out, report.Ranking(net, spec, res.Significant))
	if len(res.Significant) == 0 {
		fmt.Fprintln(out, "no significant clusters in range — lower δs or widen the range")
	}
	if *showMap {
		n := 0
		for _, r := range q.Regions {
			n += len(net.SensorsInRegion(r))
		}
		zones := sev.GuidedRedZones(q.Regions, q.Time, q.DeltaS, n)
		fmt.Fprintln(out)
		fmt.Fprint(out, report.RegionHeatmap(net, sev, q.Time, zones))
	}
	if *explainJSON {
		data, err := exp.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
		out.Write(data)
	} else if *explain {
		fmt.Fprintln(out)
		fmt.Fprint(out, exp.Text())
	}
}

func parseStrategy(s string) (query.Strategy, error) {
	switch s {
	case "all":
		return query.All, nil
	case "pru":
		return query.Pru, nil
	case "gui":
		return query.Gui, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want all, pru or gui)", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atypquery:", err)
	os.Exit(1)
}
