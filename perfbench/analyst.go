package main

import (
	"context"
	"fmt"
	"math/rand"

	atypical "github.com/cpskit/atypical"
)

// The analyst workload: the paper's Fig. 17 query Q(W, T) against an
// unsharded System with the answer cache off, from two closed-loop clients
// (the host's core count). Its timed phase exercises forest, query, cube and
// cluster, and no ingest, shard, stream or subscribe code.
const (
	analystMonths   = 3
	analystClients  = 2
	analystReplicas = 12
)

var (
	analystRanges     = []int{7, 14, 28}
	analystStrategies = []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided}
)

// analystSetup generates the inputs and the request list for a seed.
func analystSetup(seed int64) (*inputs, []request, error) {
	in, err := generate(seed, analystMonths)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	days := analystMonths * in.cfg.DaysPerMonth
	reqs := requestList(rng, in.net, days, analystReplicas, analystRanges, analystStrategies)
	return in, reqs, nil
}

// buildAnalyst is the timed set-up: NewSystem through the last IngestCtx.
func buildAnalyst(in *inputs) (*atypical.System, error) {
	sys, err := atypical.NewSystem(in.cfg, serveOptions()...)
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

func runAnalyst(r run) (*outcome, error) {
	in, reqs, err := analystSetup(r.seed)
	if err != nil {
		return nil, err
	}
	base := heapBytes()
	var sys *atypical.System
	setup, err := timeSetups(func() (func(), error) {
		var err error
		sys, err = buildAnalyst(in)
		return func() { sys = nil }, err
	})
	if err != nil {
		return nil, err
	}
	heap := float64(heapBytes()-base) / 1e6

	lr := closedLoop(reqs, analystClients, r.seconds, sys)

	m := map[string]metric{
		"setup_s": {setup, "s"},
		"heap_mb": {heap, "MB"},
	}
	lr.latencyMetrics(reqs, m)
	allP50, guiP50 := lr.strategyP50(reqs, atypical.IntegrateAll), lr.strategyP50(reqs, atypical.Guided)

	// Answer check, outside the timed window: every answer's significant set
	// must equal Algorithm 4 recomposed from the layers on an independent
	// stack built from the same records.
	st := newStack(in)
	micros := 0
	for _, rs := range in.months {
		n, err := st.ingest(nil, 0, rs)
		if err != nil {
			return nil, err
		}
		micros += n
	}
	want := make([]uint64, len(reqs))
	for i, rq := range reqs {
		want[i] = digest(st.answerLocal(nil, 0, rq.req).sig)
	}
	out := &outcome{notes: []string{fmt.Sprintf("# per strategy: all_p50_ms %.4f, pru_p50_ms %.4f, gui_p50_ms %.4f; Gui/All %.3f (paper, Fig. 17: 0.15-0.20)",
		allP50, lr.strategyP50(reqs, atypical.Pruned), guiP50, guiP50/allP50)}}
	mismatches := lr.check(reqs, want, out)
	out.res = result{
		Correct:   mismatches == 0,
		Attempted: len(lr.lat),
		Failed:    lr.errs + mismatches,
		Metrics:   m,
	}
	out.facts = facts{
		Sensors: in.net.NumSensors(), Records: in.records, MicroClusters: micros,
		Requests: len(reqs), MeasuredS: lr.measured, GenerateS: in.generateS,
	}
	return out, nil
}
