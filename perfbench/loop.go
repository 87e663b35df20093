package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	atypical "github.com/cpskit/atypical"
)

// failedLatency stands in for the latency of a failed request: a refused or
// failed request misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// loopResult is what a closed-loop measurement collected, pass by pass.
type loopResult struct {
	// lat and digests are indexed like passes×len(reqs): entry p*len(reqs)+i
	// belongs to request i of pass p. A failed request has failedLatency.
	lat     []time.Duration
	digests []uint64
	errs    int
	passes  int
	// busy is the summed wall time of the passes.
	busy     time.Duration
	measured float64
}

// closedLoop runs the fixed list with `clients` closed-loop clients, one
// whole pass after another, until `seconds` have elapsed (at least one pass).
// Whole passes keep the mix of shapes identical between runs of different
// lengths and speeds.
func closedLoop(reqs []request, clients int, seconds float64, sys *atypical.System) *loopResult {
	out := &loopResult{}
	start := time.Now()
	for out.passes == 0 || elapsedSince(start) < seconds {
		lat := make([]time.Duration, len(reqs))
		digests := make([]uint64, len(reqs))
		var errs atomic.Int64
		var next atomic.Int64
		var wg sync.WaitGroup
		passStart := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					t := time.Now()
					res, err := sys.Run(context.Background(), reqs[i].req)
					lat[i] = time.Since(t)
					if err != nil {
						errs.Add(1)
						lat[i] = failedLatency
						continue
					}
					// Fingerprinted here rather than kept: holding every
					// answer of a run would take hundreds of megabytes.
					digests[i] = digest(res.Significant)
				}
			}()
		}
		wg.Wait()
		out.busy += time.Since(passStart)
		out.lat = append(out.lat, lat...)
		out.digests = append(out.digests, digests...)
		out.errs += int(errs.Load())
		out.passes++
	}
	out.measured = elapsedSince(start)
	return out
}

// p99Block is the fewest requests a p99 is taken over, so at least ten
// samples lie beyond it.
const p99Block = 1000

// latencyMetrics adds ops_s, p50_ms and p99_ms to m. ops_s is the run's
// completed requests over the passes' summed wall time, and p50_ms pools
// every request: on a host whose speed flips between two levels every few
// seconds, both move smoothly with the share of the run spent slow, where a
// median over passes jumps between the levels. p99_ms is the median over
// blocks of whole consecutive passes, each holding at least p99Block
// requests, of the block's p99; the last block takes the leftover passes.
// It is printed as a comment line, not bounded.
func (lr *loopResult) latencyMetrics(reqs []request, m map[string]metric) {
	all := msList(lr.lat)
	per := (p99Block + len(reqs) - 1) / len(reqs)
	blocks := max(lr.passes/per, 1)
	var p99 []float64
	for b := 0; b < blocks; b++ {
		end := (b + 1) * per * len(reqs)
		if b == blocks-1 {
			end = len(all)
		}
		p99 = append(p99, quantile(all[b*per*len(reqs):end], 0.99))
	}
	m["ops_s"] = metric{float64(len(lr.lat)-lr.errs) / lr.busy.Seconds(), "1/s"}
	m["p50_ms"] = metric{quantile(all, 0.50), "ms"}
	m["p99_ms"] = metric{median(p99), "ms"}
}

// strategyP50 is the median latency in ms of the run's requests with
// strategy s.
func (lr *loopResult) strategyP50(reqs []request, s atypical.Strategy) float64 {
	var xs []float64
	for k, d := range lr.lat {
		if reqs[k%len(reqs)].req.Strategy == s {
			xs = append(xs, ms(d))
		}
	}
	return median(xs)
}

// check compares every answer's significant-set digest with the one
// expected for its request, noting the first few mismatches, and returns how
// many answers differ. Failed requests have no answer and are counted
// elsewhere.
func (lr *loopResult) check(reqs []request, want []uint64, out *outcome) int {
	mismatches := 0
	for k, d := range lr.digests {
		if rq := reqs[k%len(reqs)]; lr.lat[k] != failedLatency && d != want[k%len(reqs)] {
			if mismatches < 5 {
				out.notes = append(out.notes, fmt.Sprintf("# mismatch: %s %+v", rq.shape, rq.req))
			}
			mismatches++
		}
	}
	return mismatches
}
