package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"

	atypical "github.com/cpskit/atypical"
)

// The wire workload: a coordinator System routes the candidates stage to two
// loopback HTTP shard servers, each serving ShardHandler(k, 2) of a data
// System, from one closed-loop client with the cache off: each scatter
// already keeps both cores busy with the two shard calls. Narrow requests
// keep the scatter, the ATYPCLX1 codec, HTTP and the gather a large share of
// every query.
const (
	wireMonths  = 2
	wireShards  = 2
	wireClients = 1
	// Replicas of each (range, scope) shape: mostly Pru, a little Gui.
	wirePruReplicas = 40
	wireGuiReplicas = 10
)

var wireRanges = []int{1, 3, 7}

// wireSystems is one wire set-up: the data System behind the shard servers
// and the coordinator that scatters to them.
type wireSystems struct {
	data, coord *atypical.System
	urls        []string
	servers     []*http.Server
	serving     sync.WaitGroup
}

// close stops the shard servers and waits until their serve loops return.
func (w *wireSystems) close() {
	for _, s := range w.servers {
		s.Close()
	}
	w.serving.Wait()
}

// wireSetup generates the inputs and the request list for a seed.
func wireSetup(seed int64) (*inputs, []request, error) {
	in, err := generate(seed, wireMonths)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	days := wireMonths * in.cfg.DaysPerMonth
	reqs := requestList(rng, in.net, days, wirePruReplicas, wireRanges, []atypical.Strategy{atypical.Pruned})
	reqs = append(reqs, requestList(rng, in.net, days, wireGuiReplicas, wireRanges, []atypical.Strategy{atypical.Guided})...)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return in, reqs, nil
}

// buildWire is the timed set-up: the data System and its ingest, the shard
// servers, and the coordinator and its ingest (the coordinator ingests
// everything too: Gui's red zones and the IDs it gathers by come from its
// own forest and severity index).
func buildWire(in *inputs) (*wireSystems, error) {
	ctx := context.Background()
	w := &wireSystems{}
	data, err := atypical.NewSystem(in.cfg, serveOptions()...)
	if err != nil {
		return nil, err
	}
	for _, rs := range in.months {
		if err := data.IngestCtx(ctx, rs); err != nil {
			return nil, err
		}
	}
	w.data = data
	for k := 0; k < wireShards; k++ {
		h, err := data.ShardHandler(k, wireShards)
		if err != nil {
			w.close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle(atypical.ShardQueryPath, h)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		srv := &http.Server{Handler: mux}
		w.servers = append(w.servers, srv)
		w.urls = append(w.urls, "http://"+ln.Addr().String())
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			srv.Serve(ln)
		}()
	}
	coord, err := atypical.NewSystem(in.cfg, serveOptions(atypical.WithShardServers(w.urls...))...)
	if err != nil {
		w.close()
		return nil, err
	}
	for _, rs := range in.months {
		if err := coord.IngestCtx(ctx, rs); err != nil {
			w.close()
			return nil, err
		}
	}
	w.coord = coord
	return w, nil
}

// shardFailures sums atyp_shard_failures_total over the coordinator's shards.
func shardFailures(sys *atypical.System) int {
	snap := sys.Metrics()
	total := 0.0
	for k := 0; k < wireShards; k++ {
		if v, ok := snap.Value("atyp_shard_failures_total", "shard", fmt.Sprintf("shard%d", k)); ok {
			total += v
		}
	}
	return int(total)
}

func runWire(r run) (*outcome, error) {
	in, reqs, err := wireSetup(r.seed)
	if err != nil {
		return nil, err
	}
	base := heapBytes()
	var w *wireSystems
	setup, err := timeSetups(func() (func(), error) {
		var err error
		w, err = buildWire(in)
		if err != nil {
			return nil, err
		}
		return w.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer w.close()
	heap := float64(heapBytes()-base) / 1e6

	lr := closedLoop(reqs, wireClients, r.seconds, w.coord)
	m := map[string]metric{
		"setup_s": {setup, "s"},
		"heap_mb": {heap, "MB"},
	}
	lr.latencyMetrics(reqs, m)

	// Answer check, outside the timed window: each sharded answer must equal
	// the data System's unsharded answer to the same request.
	out := &outcome{}
	want := make([]uint64, len(reqs))
	for i, rq := range reqs {
		res, err := w.data.Run(context.Background(), rq.req)
		if err != nil {
			return nil, fmt.Errorf("unsharded reference %s: %w", rq.shape, err)
		}
		want[i] = digest(res.Significant)
	}
	mismatches := lr.check(reqs, want, out)
	// Shard calls lost after retry surface as ErrPartialResult refusals,
	// already counted in lr.errs; the metric is reported for the record.
	if lost := shardFailures(w.coord); lost > 0 {
		out.notes = append(out.notes, fmt.Sprintf("# shard calls failed after retry: %d", lost))
	}
	out.res = result{
		Correct:   mismatches == 0,
		Attempted: len(lr.lat),
		Failed:    lr.errs + mismatches,
		Metrics:   m,
	}
	out.facts = facts{
		Sensors: in.net.NumSensors(), Records: in.records, MicroClusters: w.data.Forest().Stats().MicroTotal,
		Requests: len(reqs), MeasuredS: lr.measured, GenerateS: in.generateS,
	}
	return out, nil
}
