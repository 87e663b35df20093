package main

// The -subscribers mode: N standing queries ride along with the measured
// query phase and the harness reports push latency percentiles next to the
// read latencies. Local mode subscribes in process and replays a generated
// month through a stream processor in the background; HTTP mode holds N SSE
// connections to a running atypserve (start it with -stream so the replay
// driver feeds them) and stamps latency from each push's ts_unix_ns.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	atypical "github.com/cpskit/atypical"
)

// subDeltaS is the standing-query severity threshold — far below the query
// stream's δs, so the replayed month produces a dense push stream worth
// measuring percentiles over.
const subDeltaS = 0.0005

// subCollector accumulates push latencies across all subscriber drainers.
type subCollector struct {
	mu   sync.Mutex
	lats []time.Duration
	errs int
}

func (c *subCollector) add(d time.Duration) {
	c.mu.Lock()
	c.lats = append(c.lats, d)
	c.mu.Unlock()
}

func (c *subCollector) fail() {
	c.mu.Lock()
	c.errs++
	c.mu.Unlock()
}

// result renders the collected latencies as the sub_push phase.
func (c *subCollector) result(elapsed time.Duration, dropped uint64) phaseResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.lats, func(i, j int) bool { return c.lats[i] < c.lats[j] })
	return phaseResult{
		Label:       "sub_push",
		Reads:       len(c.lats),
		Errors:      c.errs,
		Dropped:     dropped,
		ElapsedS:    elapsed.Seconds(),
		AchievedQPS: float64(len(c.lats)) / elapsed.Seconds(),
		P50Ms:       percentileMs(c.lats, 0.50),
		P99Ms:       percentileMs(c.lats, 0.99),
		P999Ms:      percentileMs(c.lats, 0.999),
	}
}

// startLocalSubscribers registers n standing queries on sys and starts a
// background streamer replaying month 0 through them while the foreground
// query phase runs. The returned finish waits for the streamer, tears the
// subscriptions down, and reports push latency (receive time minus the
// push's evaluation stamp).
func startLocalSubscribers(sys *atypical.System, n, days int) (func() (phaseResult, error), error) {
	start := time.Now()
	col := &subCollector{}
	strategies := []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned}
	subs := make([]*atypical.Subscription, 0, n)
	for i := 0; i < n; i++ {
		sub, err := sys.Subscribe(atypical.QueryRequest{
			Days: 1 + i%days, DeltaS: subDeltaS, Strategy: strategies[i%len(strategies)],
		})
		if err != nil {
			for _, s := range subs {
				sys.Unsubscribe(s.ID())
			}
			return nil, err
		}
		subs = append(subs, sub)
	}

	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *atypical.Subscription) {
			defer wg.Done()
			for {
				select {
				case p := <-sub.Pushes():
					col.add(time.Since(p.Ts))
				case <-sub.Done():
					// Teardown: whatever is still buffered is measurable.
					for {
						select {
						case p := <-sub.Pushes():
							col.add(time.Since(p.Ts))
						default:
							return
						}
					}
				}
			}
		}(sub)
	}

	// The emitted micro-clusters are discarded — the forest already holds
	// this month; the stream exists to feed the subscriptions.
	recs := sys.GenerateMonth(0).Atypical.Records()
	streamErr := make(chan error, 1)
	go func() {
		p, err := sys.NewStreamProcessor(func(*atypical.Cluster) {})
		if err != nil {
			streamErr <- err
			return
		}
		if err := p.ObserveAll(context.Background(), recs); err != nil {
			streamErr <- err
			return
		}
		streamErr <- p.Flush()
	}()

	finish := func() (phaseResult, error) {
		err := <-streamErr
		var dropped uint64
		for _, sub := range subs {
			dropped += sub.Dropped()
			sys.Unsubscribe(sub.ID())
		}
		wg.Wait()
		return col.result(time.Since(start), dropped), err
	}
	return finish, nil
}

// startHTTPSubscribers holds n SSE connections to target's /subscribe while
// the foreground HTTP phase runs; pushes only arrive when the server replays
// a live stream (atypserve -stream). Latency is the local receive time minus
// the push's ts_unix_ns — same-host clocks in practice, since the harness is
// a load generator, not a distributed tracer. Gap markers (server-side
// drops) are counted in the phase's Dropped.
func startHTTPSubscribers(target string, n, days int) func() (phaseResult, error) {
	start := time.Now()
	col := &subCollector{}
	var gaps atomic.Uint64
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Connect synchronously so every subscriber is established before the
		// measured phase starts — and so a short phase cannot cancel a
		// handshake mid-flight and miscount it as a server failure.
		url := fmt.Sprintf("%s/subscribe?strategy=all&days=%d&deltas=%g", target, 1+i%days, subDeltaS)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			col.fail()
			continue
		}
		// No client timeout: the stream lives until finish cancels ctx.
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			col.fail()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			col.fail()
			continue
		}
		wg.Add(1)
		go func(resp *http.Response) {
			defer wg.Done()
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			var data string
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return // ctx cancellation ends the stream; not a failure
				}
				line = strings.TrimRight(line, "\n")
				switch {
				case strings.HasPrefix(line, "data: "):
					data = strings.TrimPrefix(line, "data: ")
				case line == "" && data != "":
					var p struct {
						TsUnixNS int64 `json:"ts_unix_ns"`
						Gap      bool  `json:"gap"`
					}
					// The subscribed hello has no ts_unix_ns and is skipped.
					if json.Unmarshal([]byte(data), &p) == nil && p.TsUnixNS > 0 {
						col.add(time.Duration(time.Now().UnixNano() - p.TsUnixNS))
						if p.Gap {
							gaps.Add(1)
						}
					}
					data = ""
				}
			}
		}(resp)
	}
	return func() (phaseResult, error) {
		cancel()
		wg.Wait()
		return col.result(time.Since(start), gaps.Load()), nil
	}
}

// printSubPush reports the sub_push phase on the harness's summary stream.
func printSubPush(out io.Writer, p phaseResult, n int) {
	fmt.Fprintf(out, "# sub_push  %d pushes to %d subscribers, %d dropped, %d errors, %.0f push/s, p50 %.3fms p99 %.3fms\n",
		p.Reads, n, p.Dropped, p.Errors, p.AchievedQPS, p.P50Ms, p.P99Ms)
}
