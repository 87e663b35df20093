// Command atypload drives a mixed read/ingest workload against the query
// surface and reports latency percentiles — the load harness behind the
// answer-cache measurements.
//
// Usage:
//
//	atypload [-requests 2000] [-workers 4] [-qps 0] [-mix 1.0] [-distinct 6]
//	         [-sensors 120] [-days 7] [-seed 42] [-querycache 256]
//	         [-subscribers 0] [-target http://host:port] [-json BENCH_load.json]
//	         [-minimprove 0] [-maxregress 0.25]
//
// Two modes share the workload generator:
//
//   - Local (default): the harness builds an in-process System, ingests one
//     deterministic month, and runs the workload twice — once without the
//     answer cache and once with WithQueryCache(-querycache) — so the JSON
//     artifact carries the cache-off/cache-on p99 comparison on the exact
//     same request stream.
//   - HTTP (-target): requests go to a running atypserve as POST /query
//     bodies. The server owns its cache configuration, so only one phase
//     runs. atypserve exposes no ingest endpoint; the mix is forced to
//     pure reads.
//
// -subscribers N additionally registers N standing queries that are fed a
// live stream while the measured phase runs — in process in local mode, as
// SSE connections to -target's /subscribe in HTTP mode (run that server with
// -stream) — and reports push latency percentiles as the sub_push phase,
// included in the -maxregress comparison.
//
// The read stream cycles deterministically through -distinct query shapes
// (window length and strategy vary), which is the repeated-query profile an
// answer cache is built for; ingest operations (local mode, 1 - mix of the
// stream) re-ingest a pregenerated month, bumping the forest version and
// invalidating every cached answer — the adversarial half of the mix.
//
// Two gates fail the run, both optional:
//
//   - -minimprove (local mode) requires the cache-off/cache-on p99 ratio of
//     this run to reach the given floor. Both phases share the machine and
//     the moment, so the ratio is stable where absolute latencies are not —
//     the CI gate of choice on shared runners.
//   - -maxregress compares each phase's p99 against the previous JSON
//     artifact and fails past the given fraction. Cross-run baselines may
//     come from a different host, so microsecond-scale cached p99s make
//     this gate noisy; CI keeps it report-only (-maxregress 0) and gates on
//     -minimprove instead.
//
// With -json the result is written atomically to the given path; the
// previous artifact (if any) is preserved as <path minus .json>.prev.json
// and the delta against it is always printed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/faultfs"
)

// phaseResult is one measured pass over the request stream.
type phaseResult struct {
	Label       string  `json:"label"`
	Reads       int     `json:"reads"`
	Ingests     int     `json:"ingests"`
	Errors      int     `json:"errors"`
	ElapsedS    float64 `json:"elapsed_s"`
	AchievedQPS float64 `json:"achieved_qps"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	CacheHits   uint64  `json:"cache_hits,omitempty"`
	CacheMisses uint64  `json:"cache_misses,omitempty"`
	// Dropped counts pushes lost to subscriber backpressure (sub_push phase
	// only): buffer overflows locally, gap markers over HTTP.
	Dropped uint64 `json:"dropped,omitempty"`
}

// loadResult is the JSON artifact (BENCH_load.json).
type loadResult struct {
	Mode         string       `json:"mode"`
	Requests     int          `json:"requests"`
	ReadMix      float64      `json:"read_mix"`
	TargetQPS    float64      `json:"target_qps"`
	Workers      int          `json:"workers"`
	Distinct     int          `json:"distinct_queries"`
	CacheEntries int          `json:"cache_entries,omitempty"`
	CacheOff     *phaseResult `json:"cache_off,omitempty"`
	CacheOn      *phaseResult `json:"cache_on,omitempty"`
	HTTP         *phaseResult `json:"http,omitempty"`
	// Subscribers/SubPush appear with -subscribers: push latency percentiles
	// of standing queries fed while the measured phase ran.
	Subscribers int          `json:"subscribers,omitempty"`
	SubPush     *phaseResult `json:"sub_push,omitempty"`
	// P99Improvement is the cache-off/cache-on p99 ratio (local mode).
	P99Improvement float64 `json:"p99_improvement,omitempty"`
}

// runner executes one read request.
type runner interface {
	do(req atypical.QueryRequest) error
}

// localRunner serves reads from an in-process System.
type localRunner struct{ sys *atypical.System }

func (r localRunner) do(req atypical.QueryRequest) error {
	_, err := r.sys.Run(context.Background(), req)
	return err
}

// httpRunner posts reads to a running atypserve.
type httpRunner struct {
	base   string
	client *http.Client
}

// wireQuery mirrors atypserve's POST /query body.
type wireQuery struct {
	Strategy string `json:"strategy"`
	FirstDay int    `json:"first_day"`
	Days     *int   `json:"days"`
}

var strategyWire = map[atypical.Strategy]string{
	atypical.IntegrateAll: "all",
	atypical.Pruned:       "pru",
	atypical.Guided:       "gui",
}

// discardSpans arms outbound requests with trace identity without retaining
// the spans locally: the traceparent header carries the IDs, and the server
// side stitches them into its own trace buffer.
func discardSpans(atypical.Span) {}

func (r httpRunner) do(req atypical.QueryRequest) error {
	days := req.Days
	body, err := json.Marshal(wireQuery{
		Strategy: strategyWire[req.Strategy], FirstDay: req.FirstDay, Days: &days,
	})
	if err != nil {
		return err
	}
	ctx, sp := atypical.StartSpan(
		atypical.WithSpanContext(context.Background(), discardSpans), "atypload.query")
	defer sp.End()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/query", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	atypical.InjectTraceparent(ctx, hreq.Header)
	resp, err := r.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query answered %s", resp.Status)
	}
	return nil
}

// readStream builds the -distinct repeated query shapes: window lengths and
// strategies vary, scope stays whole-city — the profile an answer cache is
// built for.
func readStream(distinct, days int) []atypical.QueryRequest {
	reqs := make([]atypical.QueryRequest, distinct)
	strategies := []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided}
	for j := range reqs {
		reqs[j] = atypical.QueryRequest{
			Days:     1 + j%days,
			Strategy: strategies[j%len(strategies)],
		}
	}
	return reqs
}

// isRead deterministically spreads ingest operations through the stream:
// request i is a read iff its slot falls under the read mix.
func isRead(i int, mix float64) bool {
	return float64((i*997)%1000) < mix*1000
}

// runPhase pushes the request stream through run with the configured
// concurrency and optional QPS pacing. sys is non-nil in local mode only
// and serves the ingest half of the mix.
func runPhase(label string, run runner, sys *atypical.System, ingest *atypical.RecordSet,
	total, workers int, mix, qps float64, reqs []atypical.QueryRequest) phaseResult {
	lat := make([]time.Duration, total)
	isReadOp := make([]bool, total)
	var next, errs, reads, ingests atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				opStart := time.Now()
				if qps > 0 {
					// Paced reads are timed from their intended send time, so
					// a stalled server's queueing shows in the requests it
					// held back, not only in the one it stalled on.
					opStart = start.Add(time.Duration(float64(i) * float64(time.Second) / qps))
					time.Sleep(time.Until(opStart))
				}
				if sys == nil || isRead(i, mix) {
					err := run.do(reqs[i%len(reqs)])
					lat[i] = time.Since(opStart)
					isReadOp[i] = true
					reads.Add(1)
					if err != nil {
						errs.Add(1)
					}
				} else {
					if err := sys.IngestCtx(context.Background(), ingest); err != nil {
						errs.Add(1)
					}
					ingests.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	readLat := make([]time.Duration, 0, total)
	for i, d := range lat {
		if isReadOp[i] {
			readLat = append(readLat, d)
		}
	}
	sort.Slice(readLat, func(i, j int) bool { return readLat[i] < readLat[j] })
	return phaseResult{
		Label:       label,
		Reads:       int(reads.Load()),
		Ingests:     int(ingests.Load()),
		Errors:      int(errs.Load()),
		ElapsedS:    elapsed.Seconds(),
		AchievedQPS: float64(total) / elapsed.Seconds(),
		P50Ms:       percentileMs(readLat, 0.50),
		P99Ms:       percentileMs(readLat, 0.99),
		P999Ms:      percentileMs(readLat, 0.999),
	}
}

// percentileMs reads the q-quantile from the sorted latencies.
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// buildSystem constructs and fills one local system.
func buildSystem(sensors, days int, seed int64, opts ...atypical.Option) (*atypical.System, error) {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = sensors
	cfg.DaysPerMonth = days
	cfg.Seed = seed
	sys, err := atypical.NewSystem(cfg, opts...)
	if err != nil {
		return nil, err
	}
	if err := sys.IngestCtx(context.Background(), sys.GenerateMonth(0).Atypical); err != nil {
		return nil, err
	}
	return sys, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("atypload", flag.ExitOnError)
	var (
		requests    = fs.Int("requests", 2000, "total operations per phase")
		workers     = fs.Int("workers", 4, "concurrent workers")
		qps         = fs.Float64("qps", 0, "target operations/sec across workers (0 = unthrottled)")
		mix         = fs.Float64("mix", 1.0, "read fraction of the stream; the rest are ingest ops (local mode)")
		distinct    = fs.Int("distinct", 6, "distinct query shapes cycled by the read stream")
		sensors     = fs.Int("sensors", 120, "deployment size (local mode)")
		days        = fs.Int("days", 7, "days per generated month (local mode)")
		seed        = fs.Int64("seed", 42, "workload seed (local mode)")
		queryCache  = fs.Int("querycache", 256, "answer-cache entries for the cache-on phase (local mode)")
		target      = fs.String("target", "", "atypserve base URL; empty runs the in-process cache-off/cache-on comparison")
		jsonPath    = fs.String("json", "", "write the result JSON to this path (atomic)")
		subscribers = fs.Int("subscribers", 0, "standing-query subscribers fed during the measured phase (0 disables)")
		minImprove  = fs.Float64("minimprove", 0, "fail when this run's cache-off/cache-on p99 ratio falls below this floor (local mode; 0 disables)")
		maxRegress  = fs.Float64("maxregress", 0.25, "fail when a phase p99 regressed by more than this fraction vs the previous JSON (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mix < 0 || *mix > 1 {
		fmt.Fprintln(os.Stderr, "atypload: -mix must be in [0, 1]")
		return 2
	}
	if *distinct < 1 || *requests < 1 || *workers < 1 || *days < 1 {
		fmt.Fprintln(os.Stderr, "atypload: -distinct, -requests, -workers and -days must be positive")
		return 2
	}
	if *subscribers < 0 {
		fmt.Fprintln(os.Stderr, "atypload: -subscribers must be non-negative")
		return 2
	}

	res := loadResult{
		Requests: *requests, ReadMix: *mix, TargetQPS: *qps,
		Workers: *workers, Distinct: *distinct,
	}
	reqs := readStream(*distinct, *days)

	if *target != "" {
		res.Mode = "http"
		if *mix < 1 {
			fmt.Fprintln(os.Stderr, "atypload: atypserve has no ingest endpoint; forcing -mix 1.0")
			res.ReadMix = 1
		}
		r := httpRunner{base: *target, client: &http.Client{Timeout: 30 * time.Second}}
		var finishSubs func() (phaseResult, error)
		if *subscribers > 0 {
			finishSubs = startHTTPSubscribers(*target, *subscribers, *days)
		}
		p := runPhase("http", r, nil, nil, *requests, *workers, 1, *qps, reqs)
		res.HTTP = &p
		fmt.Fprintf(out, "# http load: %d reads against %s, %d errors, %.0f op/s, p50 %.3fms p99 %.3fms p999 %.3fms\n",
			p.Reads, *target, p.Errors, p.AchievedQPS, p.P50Ms, p.P99Ms, p.P999Ms)
		if finishSubs != nil {
			pSub, err := finishSubs()
			if err != nil {
				return fatal(err)
			}
			res.Subscribers = *subscribers
			res.SubPush = &pSub
			printSubPush(out, pSub, *subscribers)
		}
	} else {
		res.Mode = "local"
		res.CacheEntries = *queryCache

		off, err := buildSystem(*sensors, *days, *seed)
		if err != nil {
			return fatal(err)
		}
		ingest := off.GenerateMonth(1).Atypical
		pOff := runPhase("cache_off", localRunner{off}, off, ingest, *requests, *workers, *mix, *qps, reqs)
		res.CacheOff = &pOff

		on, err := buildSystem(*sensors, *days, *seed, atypical.WithQueryCache(*queryCache))
		if err != nil {
			return fatal(err)
		}
		// Subscribers ride along with the cache-on phase: push latency is
		// measured while the query workload contends for the same cores.
		var finishSubs func() (phaseResult, error)
		if *subscribers > 0 {
			if finishSubs, err = startLocalSubscribers(on, *subscribers, *days); err != nil {
				return fatal(err)
			}
		}
		pOn := runPhase("cache_on", localRunner{on}, on, ingest, *requests, *workers, *mix, *qps, reqs)
		pOn.CacheHits, pOn.CacheMisses, _ = on.QueryCacheStats()
		res.CacheOn = &pOn
		if finishSubs != nil {
			pSub, err := finishSubs()
			if err != nil {
				return fatal(err)
			}
			res.Subscribers = *subscribers
			res.SubPush = &pSub
			printSubPush(out, pSub, *subscribers)
		}

		if pOn.P99Ms > 0 {
			res.P99Improvement = pOff.P99Ms / pOn.P99Ms
		}
		for _, p := range []*phaseResult{&pOff, &pOn} {
			fmt.Fprintf(out, "# %-9s %d reads, %d ingests, %d errors, %.0f op/s, p50 %.3fms p99 %.3fms p999 %.3fms\n",
				p.Label, p.Reads, p.Ingests, p.Errors, p.AchievedQPS, p.P50Ms, p.P99Ms, p.P999Ms)
		}
		fmt.Fprintf(out, "# answer cache: %d hits, %d misses; p99 improvement %.1fx\n",
			pOn.CacheHits, pOn.CacheMisses, res.P99Improvement)
	}

	errorsSeen := 0
	for _, p := range []*phaseResult{res.CacheOff, res.CacheOn, res.HTTP, res.SubPush} {
		if p != nil {
			errorsSeen += p.Errors
		}
	}
	if errorsSeen > 0 {
		return fatal(fmt.Errorf("%d request(s) failed", errorsSeen))
	}

	// Within-run ratio gate: both phases ran on this host moments apart, so
	// the ratio holds up where cross-run absolute p99s flake. A cache-on p99
	// of exactly zero means sub-resolution hits — past any floor.
	if *minImprove > 0 && res.CacheOn != nil && res.CacheOn.P99Ms > 0 && res.P99Improvement < *minImprove {
		return fatal(fmt.Errorf("p99 improvement %.1fx below the -minimprove %.1fx floor",
			res.P99Improvement, *minImprove))
	}

	if *jsonPath == "" {
		return 0
	}
	prev, prevData := readPrevious(*jsonPath)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fatal(err)
	}
	data = append(data, '\n')
	if err := faultfs.WriteFileAtomic(faultfs.OS{}, *jsonPath, data, 0o644); err != nil {
		return fatal(err)
	}
	fmt.Fprintf(out, "# wrote %s\n", *jsonPath)
	if prev != nil {
		pp := prevPath(*jsonPath)
		if err := faultfs.WriteFileAtomic(faultfs.OS{}, pp, prevData, 0o644); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(out, "# delta vs previous run (%s):\n", pp)
		for _, pair := range [][2]*phaseResult{
			{prev.CacheOff, res.CacheOff}, {prev.CacheOn, res.CacheOn},
			{prev.HTTP, res.HTTP}, {prev.SubPush, res.SubPush},
		} {
			old, cur := pair[0], pair[1]
			if old == nil || cur == nil || old.P99Ms <= 0 {
				continue
			}
			fmt.Fprintf(out, "#   %-9s p99 %.3fms -> %.3fms  (%+.1f%%)\n",
				cur.Label, old.P99Ms, cur.P99Ms, (cur.P99Ms-old.P99Ms)/old.P99Ms*100)
			if *maxRegress > 0 && cur.P99Ms > old.P99Ms*(1+*maxRegress) {
				return fatal(fmt.Errorf("%s p99 regressed beyond %.0f%%: %.3fms -> %.3fms",
					cur.Label, *maxRegress*100, old.P99Ms, cur.P99Ms))
			}
		}
	}
	return 0
}

// readPrevious loads the prior artifact at path; a missing or unparseable
// file (first run, format change) yields nil — nothing to compare against.
func readPrevious(path string) (*loadResult, []byte) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	var prev loadResult
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, nil
	}
	if prev.CacheOff == nil && prev.CacheOn == nil && prev.HTTP == nil {
		return nil, nil
	}
	return &prev, data
}

// prevPath names the preserved copy of the previous result:
// BENCH_load.json -> BENCH_load.prev.json.
func prevPath(path string) string {
	const ext = ".json"
	if len(path) > len(ext) && path[len(path)-len(ext):] == ext {
		return path[:len(path)-len(ext)] + ".prev" + ext
	}
	return path + ".prev"
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "atypload:", err)
	return 1
}
