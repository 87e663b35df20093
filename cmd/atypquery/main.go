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
//	          [-shards 0] [-shardpeers url,url] [-map] [-explain] [-explainjson]
//
// -strategy takes all, pru (or pruned) and gui (or guided).
//
// -shards n answers the query scatter-gather across n in-process shards
// (home-filtered views over the loaded forest, each keeping the micros whose
// home region it owns) instead of one pass over the whole forest; the answer
// is byte-identical either way, so the flag exists to exercise and time the
// sharded path from the CLI.
// -shardpeers scatters to remote shard servers instead (atypserve
// -shardserve processes over the same deployment configuration); the run
// executes under a root span whose traceparent is injected on every shard
// call, so the printed trace ID finds the scatter on the servers'
// /debug/traces. A shard lost after retry prints a PARTIAL ANSWER line.
//
// -map prints the region severity map with the query's red zones.
// -explain prints the run's EXPLAIN table after the report: strategy,
// significance bound arithmetic, per-stage timings, pruning and red-zone
// accounting, integration input and macro counts, and per-macro
// significance verdicts.
// -explainjson prints the same record as indented JSON instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the command body; the return value is the process exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("atypquery", flag.ContinueOnError)
	var (
		forestDir   = fs.String("forest", "forest", "directory of a saved forest")
		data        = fs.String("data", "data", "directory of .rec files (for the red-zone severity index)")
		from        = fs.Int("from", 0, "first day of the query range")
		days        = fs.Int("days", 7, "number of days in the query range")
		strat       = fs.String("strategy", "gui", "query strategy: all, pru or gui")
		deltaS      = fs.Float64("deltas", 0.02, "severity threshold δs")
		deltaSim    = fs.Float64("deltasim", 0.5, "similarity threshold δsim")
		sensors     = fs.Int("sensors", 400, "approximate deployment size (must match atypgen)")
		seed        = fs.Int64("seed", 42, "deployment seed (must match atypgen)")
		minLat      = fs.Float64("minlat", 0, "spatial range: south edge (0 = whole city)")
		minLon      = fs.Float64("minlon", 0, "spatial range: west edge")
		maxLat      = fs.Float64("maxlat", 0, "spatial range: north edge")
		maxLon      = fs.Float64("maxlon", 0, "spatial range: east edge")
		shards      = fs.Int("shards", 0, "scatter-gather the query across n in-process shards (0 unsharded)")
		shardPeers  = fs.String("shardpeers", "", "comma-separated shard server base URLs: scatter the candidates stage to remote atypserve -shardserve processes")
		showMap     = fs.Bool("map", false, "print the region severity map with red zones")
		explain     = fs.Bool("explain", false, "print the query EXPLAIN table after the report")
		explainJSON = fs.Bool("explainjson", false, "print the query EXPLAIN record as JSON after the report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	strategy, err := atypical.ParseStrategy(*strat)
	if err != nil {
		return fail(err)
	}
	var opts []atypical.Option
	switch {
	case *shardPeers != "":
		var urls []string
		for i, base := range strings.Split(*shardPeers, ",") {
			base = strings.TrimSpace(base)
			if base == "" {
				return fail(fmt.Errorf("-shardpeers: empty URL at position %d", i))
			}
			urls = append(urls, base)
		}
		opts = append(opts, atypical.WithShardServers(urls...))
	case *shards > 0:
		opts = append(opts, atypical.WithShards(*shards))
	}
	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed = *sensors, *seed
	cfg.DeltaS, cfg.SimThreshold = *deltaS, *deltaSim
	sys, err := atypical.NewSystem(cfg, opts...)
	if err != nil {
		return fail(err)
	}
	// The severity index is rebuilt from every dataset the forest was
	// built over.
	catalog, err := storage.OpenCatalog(*data)
	if err != nil {
		return fail(err)
	}
	var records []atypical.Record
	for _, info := range catalog.List() {
		rs, err := catalog.Read(info.Name)
		if err != nil {
			return fail(err)
		}
		records = append(records, rs.Records()...)
	}
	ctx := context.Background()
	if err := sys.LoadForestAndRebuild(ctx, *forestDir, atypical.NewRecordSet(records)); err != nil {
		return fail(err)
	}

	req := atypical.QueryRequest{
		FirstDay: *from, Days: *days, DeltaS: *deltaS, Strategy: strategy,
		Explain: *explain || *explainJSON, AllowPartial: true,
	}
	grid := sys.Network().Grid
	regions := grid.NumRegions()
	if *maxLat != 0 || *maxLon != 0 {
		req.Box = &atypical.BBox{
			Min: atypical.Point{Lat: *minLat, Lon: *minLon},
			Max: atypical.Point{Lat: *maxLat, Lon: *maxLon},
		}
		regions = len(grid.RegionsIntersecting(*req.Box))
	}
	var rootSpan *atypical.Span
	if *shardPeers != "" {
		// Remote scatter runs under a root span with a discard exporter: the
		// span is not retained here, but the scatter's HTTP calls inject its
		// traceparent, so the shard servers stitch this run into their own
		// /debug/traces under the trace ID printed below.
		ctx = atypical.WithSpanContext(ctx, func(atypical.Span) {})
		ctx, rootSpan = atypical.StartSpan(ctx, "atypquery.query")
	}
	res, err := sys.Run(ctx, req)
	rootSpan.End()
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(out, "query: days [%d, %d), %d regions, strategy %s, δs=%.3g (bound %.0f severity-min)\n",
		*from, *from+*days, regions, res.Strategy, *deltaS, float64(res.Bound))
	if rootSpan != nil {
		fmt.Fprintf(out, "trace: %s (find the scatter on the shard servers' /debug/traces)\n", rootSpan.TraceHex())
	}
	fmt.Fprintf(out, "inputs: %d of %d micro-clusters", res.InputMicros, res.CandidateMicros)
	if strategy == atypical.Guided {
		fmt.Fprintf(out, " (%d red zones)", res.RedZones)
	}
	fmt.Fprintf(out, "; %d macro-clusters, %d significant; %s\n",
		len(res.Macros), len(res.Significant), res.Elapsed.Round(time.Millisecond))
	if res.Partial {
		fmt.Fprintf(out, "PARTIAL ANSWER: shards %v failed after retry\n", res.FailedShards)
	}
	fmt.Fprintln(out)

	fmt.Fprint(out, sys.Ranking(res.Significant))
	if len(res.Significant) == 0 {
		fmt.Fprintln(out, "no significant clusters in range — lower δs or widen the range")
	}
	if *showMap {
		heatmap, err := sys.RegionHeatmap(req)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, heatmap)
	}
	if *explainJSON {
		data, err := res.Explain.JSON()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(out)
		out.Write(data)
	} else if *explain {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.Explain.Text())
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "atypquery:", err)
	return 1
}
