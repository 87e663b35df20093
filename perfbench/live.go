package main

import (
	"context"
	"fmt"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/cps"
)

// The live workload: writes beside reads. One history month is ingested in
// set-up; a feeder then replays the next month unpaced through a stream
// processor, calling IngestCtx for each completed day and then reading the
// trailing days with the answer cache on, while standing queries push their
// changes. Everything runs on the feeder's goroutine: it drains the pushes
// right after each Observe that emitted, so no run measures how the
// scheduler hands work between goroutines on a host with two cores.
const (
	liveHistoryMonths = 1
	// liveCache is the answer-cache size of the live System.
	liveCache = 256
	// liveSubBuffer is each subscription's push buffer (atypserve's default).
	liveSubBuffer = 64
	// liveDashboards is how many dashboards read the same trailing windows
	// after each day's ingest: the first read of each misses the answer
	// cache (the ingest made a new version), the others hit it.
	liveDashboards = 2
	// liveSubDeltaS is the standing queries' δs: low enough that the replay
	// produces a dense push stream to take percentiles over.
	liveSubDeltaS = 0.0001
)

// liveStanding are the standing queries, as (strategy, days) windows that
// start at the replayed month's first day, so a window never reaches into the
// history, which the stream does not replay. Windows stay at 14 days or less:
// longer windows collapse the subscriptions' shared-key components and the
// replay slows by an order of magnitude.
var liveStanding = []struct {
	strat atypical.Strategy
	days  int
}{
	{atypical.IntegrateAll, 1},
	{atypical.Pruned, 3},
	{atypical.IntegrateAll, 3},
	{atypical.Pruned, 7},
	{atypical.IntegrateAll, 7},
	{atypical.Pruned, 14},
}

// liveReads are each dashboard's reads after a day's ingest: trailing
// windows ending at that day, over the whole city, under every strategy.
var liveReads = []struct {
	strat atypical.Strategy
	days  int
}{
	{atypical.Pruned, 1}, {atypical.Guided, 3}, {atypical.IntegrateAll, 1},
	{atypical.Pruned, 3}, {atypical.Guided, 7}, {atypical.IntegrateAll, 3},
	{atypical.Pruned, 7}, {atypical.Guided, 1},
}

// liveInputs are the history months plus the replayed month, split by day.
type liveInputs struct {
	*inputs
	replay   []cps.Record
	days     []int
	daySets  []*atypical.RecordSet
	firstDay int
	perDay   int
}

func liveSetup(seed int64) (*liveInputs, error) {
	in, err := generate(seed, liveHistoryMonths+1)
	if err != nil {
		return nil, err
	}
	li := &liveInputs{inputs: in}
	replay := in.months[liveHistoryMonths]
	in.months = in.months[:liveHistoryMonths]
	li.replay = replay.Records()
	li.firstDay = liveHistoryMonths * in.cfg.DaysPerMonth
	spec := cps.DefaultSpec()
	li.perDay = spec.PerDay()
	byDay := replay.SplitByDay(spec)
	cps.ForEachDay(byDay, func(day int, recs []cps.Record) {
		li.days = append(li.days, day)
		li.daySets = append(li.daySets, atypical.NewRecordSet(recs))
	})
	return li, nil
}

// buildLive is the timed set-up: NewSystem and the history ingest.
func buildLive(in *inputs) (*atypical.System, error) {
	sys, err := atypical.NewSystem(in.cfg, serveOptions(
		atypical.WithQueryCache(liveCache),
		atypical.WithSubscriptionBuffer(liveSubBuffer),
	)...)
	if err != nil {
		return nil, err
	}
	for _, rs := range in.months {
		if err := sys.IngestCtx(context.Background(), rs); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// standingRequest is standing query i's request.
func (li *liveInputs) standingRequest(i int) atypical.QueryRequest {
	sq := liveStanding[i]
	return atypical.QueryRequest{FirstDay: li.firstDay, Days: sq.days, DeltaS: liveSubDeltaS, Strategy: sq.strat}
}

// roundResult is one replay of the live month.
type roundResult struct {
	feederS    float64
	pushLat    []time.Duration
	readLat    []time.Duration
	reads      int
	readErrs   int
	ingestErrs int
	pushes     int
	dropped    int
	gaps       int
	mismatches []string
	dayDiffers int
	cacheHits  uint64
	cacheMiss  uint64
}

// liveRound replays the month once against sys.
func liveRound(li *liveInputs, sys *atypical.System) (*roundResult, error) {
	ctx := context.Background()
	rr := &roundResult{}
	subs := make([]*atypical.Subscription, len(liveStanding))
	replays := make([]*atypical.PushReplay, len(liveStanding))
	for i := range liveStanding {
		sub, err := sys.Subscribe(li.standingRequest(i))
		if err != nil {
			return nil, err
		}
		subs[i] = sub
		replays[i] = atypical.NewPushReplay()
	}
	defer func() {
		for _, sub := range subs {
			if sub != nil {
				sys.Unsubscribe(sub.ID())
			}
		}
	}()

	// Subscriptions evaluate inside the emitting Observe (or Flush) call, so
	// after such a call every push it caused is buffered. Each push is timed
	// from the start of that call to its receipt here.
	var emitted []*atypical.Cluster
	emitting := false
	p, err := sys.NewStreamProcessor(func(c *atypical.Cluster) {
		emitted = append(emitted, c)
		emitting = true
	})
	if err != nil {
		return nil, err
	}
	drain := func(began time.Time) {
		for i, sub := range subs {
			for {
				select {
				case push := <-sub.Pushes():
					rr.pushLat = append(rr.pushLat, time.Since(began))
					replays[i].Apply(push)
					continue
				default:
				}
				break
			}
		}
	}
	hits0, miss0, _ := sys.QueryCacheStats()
	feedStart := time.Now()
	next := 0
	for d, day := range li.days {
		for next < len(li.replay) && int(li.replay[next].Window)/li.perDay == day {
			began := time.Now()
			emitting = false
			if err := p.Observe(li.replay[next]); err != nil {
				return nil, err
			}
			if emitting {
				drain(began)
			}
			next++
		}
		if err := sys.IngestCtx(ctx, li.daySets[d]); err != nil {
			rr.ingestErrs++
		}
		for k := 0; k < liveDashboards*len(liveReads); k++ {
			sh := liveReads[k%len(liveReads)]
			began := time.Now()
			_, err := sys.Run(ctx, atypical.QueryRequest{FirstDay: day + 1 - sh.days, Days: sh.days, Strategy: sh.strat})
			rr.reads++
			if err != nil {
				rr.readErrs++
				rr.readLat = append(rr.readLat, failedLatency)
				continue
			}
			rr.readLat = append(rr.readLat, time.Since(began))
		}
	}
	began := time.Now()
	p.Flush()
	drain(began)
	rr.feederS = elapsedSince(feedStart)
	hits1, miss1, _ := sys.QueryCacheStats()
	rr.cacheHits, rr.cacheMiss = hits1-hits0, miss1-miss0

	ref, err := atypical.NewSystem(li.cfg)
	if err != nil {
		return nil, err
	}
	ref.IngestClusters(emitted)
	for i, sub := range subs {
		rr.pushes += int(sub.Delivered())
		rr.dropped += int(sub.Dropped())
		rr.gaps += int(sub.Gaps())

		// After Flush, the replayed pushes must equal a batch Run over the
		// standing query's window on a System holding what the stream
		// emitted — the subscription contract.
		req := li.standingRequest(i)
		got := digest(replays[i].Significant())
		res, err := ref.Run(ctx, req)
		if err != nil {
			return nil, err
		}
		if got != digest(res.Significant) {
			rr.mismatches = append(rr.mismatches, fmt.Sprintf("# mismatch: standing %s/%dd: %d pushed vs %d batch",
				req.Strategy, req.Days, len(replays[i].Significant()), len(res.Significant)))
		}
		// The live System's own answer comes from day-partitioned IngestCtx;
		// an event the stream keeps whole across midnight is split there.
		// That difference is reported, not failed.
		if res, err = sys.Run(ctx, req); err != nil {
			return nil, err
		}
		if got != digest(res.Significant) {
			rr.dayDiffers++
		}
	}
	return rr, nil
}

func runLive(r run) (*outcome, error) {
	li, err := liveSetup(r.seed)
	if err != nil {
		return nil, err
	}
	base := heapBytes()
	var sys *atypical.System
	setup, err := timeSetups(func() (func(), error) {
		var err error
		sys, err = buildLive(li.inputs)
		return func() { sys = nil }, err
	})
	if err != nil {
		return nil, err
	}
	heap := float64(heapBytes()-base) / 1e6

	out := &outcome{}
	var rounds []*roundResult
	var feeding float64
	measured := 0.0
	for len(rounds) == 0 || measured < r.seconds {
		if len(rounds) > 0 {
			// A fresh System per round: the replayed month must land on
			// the history alone. Its build is not part of the measurement.
			if sys, err = buildLive(li.inputs); err != nil {
				return nil, err
			}
		}
		roundStart := time.Now()
		rr, err := liveRound(li, sys)
		if err != nil {
			return nil, err
		}
		measured += elapsedSince(roundStart)
		rounds = append(rounds, rr)
		feeding += rr.feederS
	}

	// ops_s is every round's replayed records over the feeders' summed wall
	// time and p50_ms pools every round's pushes, as the closed loops do.
	// p99_ms, each round's push p99 and the median over rounds, is printed
	// as a comment line only.
	var pushes, reads int
	var pushLat []time.Duration
	var push99 []float64
	attempted, failed, mismatches, dayDiffers := 0, 0, 0, 0
	for _, rr := range rounds {
		pushes += len(rr.pushLat)
		reads += len(rr.readLat)
		pushLat = append(pushLat, rr.pushLat...)
		push99 = append(push99, quantile(msList(rr.pushLat), 0.99))
		attempted += rr.reads + rr.pushes + rr.dropped + len(li.days)
		failed += rr.readErrs + rr.ingestErrs + rr.dropped + rr.gaps + len(rr.mismatches)
		mismatches += len(rr.mismatches)
		dayDiffers += rr.dayDiffers
		out.notes = append(out.notes, rr.mismatches...)
	}
	out.res = result{
		Correct:   mismatches == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s": {setup, "s"},
			"heap_mb": {heap, "MB"},
			"ops_s":   {float64(len(rounds)*len(li.replay)) / feeding, "1/s"},
			"p50_ms":  {quantile(msList(pushLat), 0.50), "ms"},
			"p99_ms":  {median(push99), "ms"},
		},
	}
	out.notes = append(out.notes, fmt.Sprintf("# live: %d rounds, %d pushes, %d reads; %d of %d standing answers differ from the day-partitioned batch answer",
		len(rounds), pushes, reads, dayDiffers, len(rounds)*len(liveStanding)))
	out.facts = facts{
		Sensors: li.net.NumSensors(), Records: li.records, MicroClusters: sys.Forest().Stats().MicroTotal,
		Requests: reads, MeasuredS: measured, GenerateS: li.generateS,
	}
	return out, nil
}
