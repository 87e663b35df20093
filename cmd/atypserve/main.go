// Command atypserve runs the pipeline as a long-lived query server: it
// builds (or generates) a deployment, ingests the requested months, and then
// serves analytical queries over HTTP alongside the operational surface —
// Prometheus-text metrics at /metrics, the pprof suite at /debug/pprof/, and
// the live trace buffer at /debug/traces.
//
// Usage:
//
//	atypserve [-addr :8081] [-metrics :8080]
//	          [-sensors 400] [-seed 42] [-months 1] [-days 30]
//	          [-workers 0] [-deltas 0.02]
//	          [-maxinflight 64] [-querytimeout 30s] [-drain 15s]
//	          [-logjson] [-traces 256] [-slowquery -1]
//	          [-querylog 256] [-querylogsample 1] [-querylogslow 1s]
//	          [-slo gui=500ms,all=2s] [-sloobjective 0.99]
//	          [-maxsubs 1024] [-subbuffer 64] [-stream] [-streamrate 2000]
//	          [-shards 0] [-shardpeers url,url] [-shardserve k/n]
//
// Endpoints on -addr:
//
//	GET  /query?strategy=gui&from=0&days=7  JSON query report
//	GET  /query?...&explain=1               report plus an "explain" record
//	POST /query                             the same report for a QueryRequest
//	                                        JSON body (see wireQuery); byte-
//	                                        identical to the GET answer
//	GET  /healthz                           liveness probe (always 200)
//	GET  /subscribe?strategy=all&days=7     standing query over the live stream:
//	                                        SSE push events (mode=poll switches
//	                                        to a long-poll session; see below)
//	GET  /readyz                            readiness probe (503 until ingest
//	                                        completes; per-shard lines when
//	                                        sharding is enabled)
//	POST /shard/query                       shard wire protocol (-shardserve only)
//
// Endpoints on -metrics (omit the flag to disable):
//
//	GET /metrics                            Prometheus text format 0.0.4
//	GET /debug/pprof/                       net/http/pprof suite
//	GET /debug/traces                       last -traces finished spans, newest first
//	GET /debug/querylog                     last -querylog flight-recorder wide
//	                                        events, newest first (?format=text
//	                                        for one line per event)
//
// The server is hardened for production traffic: both listeners bind and
// serve before ingestion starts (readiness gates /query with 503 until the
// model is loaded, so orchestrators can route on /readyz while /healthz
// already answers), every query carries a context deadline (-querytimeout),
// at most -maxinflight queries run concurrently (excess requests are shed
// with 503 and counted in atyp_serve_shed_total), and SIGINT/SIGTERM drain
// in-flight requests for up to -drain before exit. A listener that fails to
// bind — the metrics one included — exits the process non-zero instead of
// serving half the surface.
//
// Sharding: -shards n partitions query serving across n in-process shard
// forests (scatter-gather, byte-identical answers). -shardpeers routes the
// candidates stage to remote shard servers instead — processes started with
// -shardserve k/n over the same -sensors/-seed/-days configuration, which
// serve their slice at /shard/query behind the same readiness and shedding
// gates. A peer lost after retry yields an explicitly partial response
// ("partial": true plus failed_shards) and bumps atyp_shard_failures_total.
//
// Standing queries: GET /subscribe registers the request as a standing query
// and pushes incremental answers the moment a macro-cluster's significant set
// changes — as Server-Sent Events by default, or through a long-poll session
// (mode=poll; the first response carries the session id, later requests
// drain with ?id=...&wait=30s and tear down with &close=1). Slow consumers
// never block ingest: overflowing pushes are dropped, counted in
// atyp_sub_dropped_total, and flagged with a gap marker on the next delivered
// push. -maxsubs caps concurrent subscribers, -subbuffer sizes each push
// buffer, and -stream replays the generated months as a paced live stream
// (-streamrate records/sec) so subscriptions have something to watch.
//
// Logs are structured (internal/obs/olog): every line carries level and
// message keys, and lines emitted under an active span carry trace/span IDs
// for correlation with /debug/traces. Every API request runs under an
// "http.request" span that adopts an inbound W3C traceparent header — a
// coordinator's scatter calls inject the header toward shard servers, so a
// sharded query stitches into one trace across processes — and leaves one
// access-log line (method, path, status, duration, trace_id, partial).
// -querylog arms the per-query flight recorder: one wide event per Run with
// trace ID, canonical key, cache verdict, per-shard timings, stage timings
// and SLO verdict, served at /debug/querylog. -slowquery T arms the
// slow-query log: any query at or above T is logged at WARN with its full
// EXPLAIN record (T=0 logs every query; negative disables). -slo installs
// per-strategy latency objectives surfaced as atyp_slo_burn_rate gauges.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/obs/olog"
)

func main() {
	var (
		addr         = flag.String("addr", ":8081", "query API listen address")
		metricsAddr  = flag.String("metrics", ":8080", "metrics/pprof listen address (empty disables)")
		sensors      = flag.Int("sensors", 400, "approximate deployment size")
		seed         = flag.Int64("seed", 42, "deployment and workload seed")
		months       = flag.Int("months", 1, "months of synthetic data to ingest at startup")
		days         = flag.Int("days", 30, "days per generated month")
		workers      = flag.Int("workers", 0, "construction workers (0 serial, <0 one per CPU)")
		deltaS       = flag.Float64("deltas", 0.02, "severity threshold δs")
		maxInflight  = flag.Int("maxinflight", 64, "max concurrent queries before shedding 503s (<=0 unlimited)")
		queryTimeout = flag.Duration("querytimeout", 30*time.Second, "per-query context deadline")
		drain        = flag.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
		logJSON      = flag.Bool("logjson", false, "emit logs as JSON lines instead of key=value text")
		traces       = flag.Int("traces", 256, "finished traces retained for /debug/traces (<=0 disables)")
		slowQuery    = flag.Duration("slowquery", -1, "log queries at or above this latency with their EXPLAIN (0 logs all, <0 disables)")
		queryLog     = flag.Int("querylog", 256, "flight-recorder wide events retained for /debug/querylog (<=0 disables)")
		queryLogN    = flag.Int("querylogsample", 1, "head sampling: record 1 of every N normal queries (slow/error/partial always kept)")
		queryLogSlow = flag.Duration("querylogslow", time.Second, "flight-recorder tail-keep threshold: queries at or above this latency bypass sampling (<=0 keeps tail-keep for errors/partials only)")
		slo          = flag.String("slo", "", "per-strategy latency SLO targets, e.g. gui=500ms,all=2s")
		sloObjective = flag.Float64("sloobjective", 0.99, "fraction of queries that must meet their SLO target")
		queryCache   = flag.Int("querycache", 0, "canonical-keyed answer cache entries (0 disables)")
		maxSubs      = flag.Int("maxsubs", atypical.DefaultMaxSubscribers, "max standing-query subscribers (0 keeps the library default, <0 unlimited)")
		subBuffer    = flag.Int("subbuffer", 0, "per-subscriber push buffer entries (0 keeps the library default)")
		streamLive   = flag.Bool("stream", false, "after ingest, replay the generated months as a live stream feeding /subscribe")
		streamRate   = flag.Int("streamrate", 2000, "live replay pace in records/sec (<=0 unpaced)")
		shards       = flag.Int("shards", 0, "partition query serving across n in-process shards (0 unsharded)")
		shardPeers   = flag.String("shardpeers", "", "comma-separated shard server base URLs (HTTP scatter-gather)")
		shardServe   = flag.String("shardserve", "", "serve shard k of n at /shard/query, e.g. 0/4")
	)
	flag.Parse()
	os.Exit(run(serveConfig{
		addr: *addr, metricsAddr: *metricsAddr,
		sensors: *sensors, seed: *seed, months: *months, days: *days,
		workers: *workers, deltaS: *deltaS,
		maxInflight: *maxInflight, queryTimeout: *queryTimeout, drain: *drain,
		logJSON: *logJSON, traces: *traces, slowQuery: *slowQuery,
		queryLog: *queryLog, queryLogSample: *queryLogN, queryLogSlow: *queryLogSlow,
		slo: *slo, sloObjective: *sloObjective, queryCache: *queryCache,
		maxSubs: *maxSubs, subBuffer: *subBuffer,
		stream: *streamLive, streamRate: *streamRate,
		shards: *shards, shardPeers: *shardPeers, shardServe: *shardServe,
	}))
}

// serveConfig carries the flag values into run.
type serveConfig struct {
	addr, metricsAddr     string
	sensors, months, days int
	seed                  int64
	workers               int
	deltaS                float64
	maxInflight           int
	queryTimeout, drain   time.Duration
	logJSON               bool
	traces                int
	slowQuery             time.Duration
	queryLog              int
	queryLogSample        int
	queryLogSlow          time.Duration
	slo                   string
	sloObjective          float64
	queryCache            int
	maxSubs, subBuffer    int
	stream                bool
	streamRate            int
	shards                int
	shardPeers            string
	shardServe            string
	// onListen, when set, is told each listener's bound address — tests
	// bind ":0" and discover the port through it.
	onListen func(name string, addr net.Addr)
	// logTo overrides the log destination (tests capture it with their own
	// locking); nil means stderr. The server logs from several goroutines,
	// so the writer must tolerate concurrent Write calls.
	logTo io.Writer
}

// run builds the system and serves until a signal arrives or a listener
// fails; the return value is the process exit code.
func run(sc serveConfig) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, sc)
}

// newLogger builds the process logger on the olog handler: structured
// key=value (or JSON) lines with span correlation.
func newLogger(sc serveConfig) *slog.Logger {
	w := io.Writer(os.Stderr)
	if sc.logTo != nil {
		w = sc.logTo
	}
	return olog.NewWith(w, olog.Options{JSON: sc.logJSON})
}

// parseSLO parses "gui=500ms,all=2s" into per-strategy targets.
func parseSLO(spec string, objective float64) (map[atypical.Strategy]atypical.SLOTarget, error) {
	out := make(map[atypical.Strategy]atypical.SLOTarget)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -slo entry %q (want strategy=duration)", part)
		}
		strat, err := atypical.ParseStrategy(name)
		if err != nil {
			return nil, fmt.Errorf("bad -slo entry %q: %v", part, err)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad -slo duration %q", val)
		}
		out[strat] = atypical.SLOTarget{Latency: d, Objective: objective}
	}
	return out, nil
}

// serveUntil serves until ctx is done (drain and exit 0) or a listener
// fails (exit 1). Split from run so tests drive shutdown with a plain
// context instead of process signals. Listeners bind and serve before
// ingestion: /healthz and /metrics answer immediately, /readyz and /query
// gate on the background ingest completing.
func serveUntil(ctx context.Context, sc serveConfig) int {
	logger := newLogger(sc)
	reg := atypical.NewObserver()
	atypical.RegisterRuntimeMetrics(reg)

	slos, err := parseSLO(sc.slo, sc.sloObjective)
	if err != nil {
		logger.Error("atypserve: invalid flags", "err", err)
		return 1
	}
	opts := []atypical.Option{
		atypical.WithWorkers(sc.workers),
		atypical.WithObserver(reg),
	}
	if sc.queryCache > 0 {
		opts = append(opts, atypical.WithQueryCache(sc.queryCache))
	}
	if sc.maxSubs != 0 {
		opts = append(opts, atypical.WithSubscriptions(sc.maxSubs))
	}
	if sc.subBuffer > 0 {
		opts = append(opts, atypical.WithSubscriptionBuffer(sc.subBuffer))
	}
	var ring *atypical.TraceRing
	if sc.traces > 0 {
		ring = atypical.NewTraceRing(sc.traces)
		opts = append(opts, atypical.WithSpanExporter(ring.Export))
	}
	if sc.queryLog > 0 {
		opts = append(opts, atypical.WithQueryLog(atypical.QueryLogConfig{
			Entries:     sc.queryLog,
			SampleEvery: sc.queryLogSample,
			Slow:        sc.queryLogSlow,
		}))
	}
	for _, strat := range []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided} {
		if target, ok := slos[strat]; ok {
			opts = append(opts, atypical.WithQuerySLO(strat, target))
		}
	}
	if sc.shards > 0 {
		opts = append(opts, atypical.WithShards(sc.shards))
	}
	if sc.shardPeers != "" {
		var urls []string
		for _, u := range strings.Split(sc.shardPeers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		opts = append(opts, atypical.WithShardServers(urls...))
	}

	cfg := atypical.DefaultConfig()
	cfg.Sensors = sc.sensors
	cfg.Seed = sc.seed
	cfg.DaysPerMonth = sc.days
	cfg.DeltaS = sc.deltaS
	sys, err := atypical.NewSystem(cfg, opts...)
	if err != nil {
		logger.Error("atypserve: building system", "err", err)
		return 1
	}

	var shardHandler http.Handler
	if sc.shardServe != "" {
		k, n, err := parseShardServe(sc.shardServe)
		if err != nil {
			logger.Error("atypserve: invalid flags", "err", err)
			return 1
		}
		if shardHandler, err = sys.ShardHandler(k, n); err != nil {
			logger.Error("atypserve: shard server", "err", err)
			return 1
		}
	}

	// Any listener failing surfaces here and fails the process: serving
	// queries without the operational surface (or vice versa) is a
	// misconfiguration to crash on, not to log and limp through. Binding
	// happens synchronously so a bad address fails startup immediately.
	errc := make(chan error, 2)
	var servers []*http.Server
	start1 := func(name string, srv *http.Server) error {
		ln, err := net.Listen("tcp", srv.Addr)
		if err != nil {
			return fmt.Errorf("%s listener: %w", name, err)
		}
		if sc.onListen != nil {
			sc.onListen(name, ln.Addr())
		}
		servers = append(servers, srv)
		go func() {
			logger.Info("listener up", "name", name, "addr", ln.Addr().String())
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("%s listener: %w", name, err)
			}
		}()
		return nil
	}

	bindFailed := func(err error) int {
		logger.Error("atypserve: startup", "err", err)
		for _, srv := range servers {
			srv.Close()
		}
		return 1
	}
	var exporter atypical.SpanExporter
	if ring != nil {
		exporter = ring.Export
	}
	var ready atomic.Bool
	if err := start1("query API", &http.Server{
		Addr: sc.addr,
		Handler: newAPIHandler(apiConfig{
			sys: sys, obs: reg, ready: &ready, logger: logger,
			maxInflight: sc.maxInflight, queryTimeout: sc.queryTimeout,
			slowQuery: sc.slowQuery, shardHandler: shardHandler,
			exporter: exporter,
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      sc.queryTimeout + 5*time.Second,
		IdleTimeout:       60 * time.Second,
	}); err != nil {
		return bindFailed(err)
	}

	debugMux := atypical.NewDebugMux(reg, ring)
	if qh := sys.QueryLogHandler(); qh != nil {
		debugMux.Handle("/debug/querylog", qh)
	}
	if sc.metricsAddr != "" {
		if err := start1("metrics and pprof", &http.Server{
			Addr:              sc.metricsAddr,
			Handler:           debugMux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
		}); err != nil {
			return bindFailed(err)
		}
	}

	// Ingest in the background so the listeners answer probes while the
	// model builds; /readyz flips once the last month lands. A shutdown
	// signal cancels the ingest through ctx.
	go func() {
		start := time.Now()
		logger.Info("ingest starting", "months", sc.months, "days", sc.days, "sensors", sc.sensors)
		if _, err := sys.IngestMonthsCtx(ctx, sc.months); err != nil {
			logger.Error("ingest aborted", "err", err)
			return
		}
		logger.Info("ingest done", "elapsed", time.Since(start).Round(time.Millisecond).String())
		ready.Store(true)
		if sc.stream {
			go replayStream(ctx, logger, sys, sc.months, sc.streamRate)
		}
	}()

	code := 0
	select {
	case <-ctx.Done():
		logger.Info("signal received; draining", "budget", sc.drain.String())
	case err := <-errc:
		logger.Error("atypserve: serving", "err", err)
		code = 1
	}

	// The parent ctx is already done here (that's why we are shutting
	// down); WithoutCancel keeps its values without inheriting the
	// cancellation, giving the drain its own deadline.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), sc.drain)
	defer cancel()
	for _, srv := range servers {
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("atypserve: shutdown", "err", err)
			code = 1
		}
	}
	return code
}

// parseShardServe parses the -shardserve value "k/n" into shard index k of
// fan-out n.
func parseShardServe(s string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shardserve %q (want k/n, e.g. 0/4)", s)
	}
	if k, err = strconv.Atoi(ks); err != nil {
		return 0, 0, fmt.Errorf("bad -shardserve index %q: %v", ks, err)
	}
	if n, err = strconv.Atoi(ns); err != nil {
		return 0, 0, fmt.Errorf("bad -shardserve fan-out %q: %v", ns, err)
	}
	return k, n, nil
}

// apiConfig wires the query API handler.
type apiConfig struct {
	sys          *atypical.System
	obs          *atypical.Observer
	ready        *atomic.Bool
	logger       *slog.Logger
	maxInflight  int
	queryTimeout time.Duration
	slowQuery    time.Duration
	// shardHandler, when set, is mounted at atypical.ShardQueryPath behind
	// the readiness and shedding gates (-shardserve role).
	shardHandler http.Handler
	// exporter, when set, receives the middleware's per-request server spans
	// (the -traces ring in production wiring).
	exporter atypical.SpanExporter
}

// newAPIHandler assembles the query API: routing, the readiness gate, the
// load-shed gate, and per-request deadlines.
func newAPIHandler(ac apiConfig) http.Handler {
	mux := http.NewServeMux()
	// whenReady answers 503 with a Retry-After until ingest completes.
	whenReady := func(h http.HandlerFunc) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ac.ready != nil && !ac.ready.Load() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "warming up: ingest in progress", http.StatusServiceUnavailable)
				return
			}
			h(w, r)
		})
	}
	mux.Handle("/query", shedGate(whenReady(func(w http.ResponseWriter, r *http.Request) {
		serveQuery(ac, w, r)
	}), ac.maxInflight, ac.obs))
	// Standing-query subscriptions are long-lived: admitting them through the
	// shed gate would let one dashboard pin a query slot for hours, so
	// /subscribe sits outside it — the registry's subscriber cap (-maxsubs)
	// and per-subscriber buffers (-subbuffer) are its admission control.
	polls := newSubStore()
	mux.Handle("/subscribe", whenReady(func(w http.ResponseWriter, r *http.Request) {
		serveSubscribe(ac, polls, w, r)
	}))
	if ac.shardHandler != nil {
		mux.Handle(atypical.ShardQueryPath, shedGate(whenReady(ac.shardHandler.ServeHTTP), ac.maxInflight, ac.obs))
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ac.ready != nil && !ac.ready.Load() {
			http.Error(w, "ingest in progress", http.StatusServiceUnavailable)
			return
		}
		serveReady(ac, w, r)
	})
	return withObservability(mux, ac.exporter, ac.logger)
}

// serveReady answers /readyz once ingest completed. On a sharded system the
// answer lists every shard's readiness and turns 503 as soon as any shard is
// unreachable, so orchestrators route coordinators only when the whole
// fan-out can answer.
func serveReady(ac apiConfig, w http.ResponseWriter, r *http.Request) {
	sts := ac.sys.ShardsReady(r.Context())
	if len(sts) == 0 {
		fmt.Fprintln(w, "ready")
		return
	}
	var b strings.Builder
	down := 0
	for _, st := range sts {
		if st.Err != nil {
			down++
			fmt.Fprintf(&b, "%s not ready: %v\n", st.Shard, st.Err)
		} else {
			fmt.Fprintf(&b, "%s ready\n", st.Shard)
		}
	}
	if down > 0 {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "%d of %d shards not ready\n%s", down, len(sts), b.String())
		return
	}
	fmt.Fprintf(w, "ready\n%s", b.String())
}

// shedGate caps concurrent requests through next at limit; requests beyond
// the cap are refused immediately with 503 and a Retry-After, keeping
// latency bounded under overload instead of queueing unboundedly. limit <= 0
// disables the gate.
func shedGate(next http.Handler, limit int, obs *atypical.Observer) http.Handler {
	if limit <= 0 {
		return next
	}
	slots := make(chan struct{}, limit)
	shed := obs.Counter("atyp_serve_shed_total",
		"requests refused with 503 by the max-in-flight gate")
	inflight := obs.Gauge("atyp_serve_inflight",
		"requests currently inside the load-shed gate")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			inflight.Add(1)
			defer func() {
				inflight.Add(-1)
				<-slots
			}()
			next.ServeHTTP(w, r)
		default:
			shed.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		}
	})
}

// queryResponse is the JSON shape of one /query answer. Explain is the
// explain=1 side channel: absent (omitempty) unless requested, so the
// report bytes without it are identical to the pre-EXPLAIN server's.
// Partial/FailedShards likewise only appear on degraded sharded answers.
type queryResponse struct {
	Strategy        string            `json:"strategy"`
	FirstDay        int               `json:"first_day"`
	Days            int               `json:"days"`
	CandidateMicros int               `json:"candidate_micros"`
	InputMicros     int               `json:"input_micros"`
	RedZones        int               `json:"red_zones,omitempty"`
	Macros          int               `json:"macros"`
	Significant     int               `json:"significant"`
	ElapsedMS       float64           `json:"elapsed_ms"`
	Partial         bool              `json:"partial,omitempty"`
	FailedShards    []string          `json:"failed_shards,omitempty"`
	Clusters        []clusterJSON     `json:"clusters"`
	Explain         *atypical.Explain `json:"explain,omitempty"`
}

// clusterJSON summarizes one significant cluster.
type clusterJSON struct {
	ID          uint64  `json:"id"`
	Severity    float64 `json:"severity"`
	Description string  `json:"description"`
}

// wireQuery is the QueryRequest JSON accepted on POST /query. Absent fields
// take the GET defaults (strategy gui, from 0, days 7), so the same logical
// query answers byte-identically whichever way it arrives.
type wireQuery struct {
	Strategy string   `json:"strategy"`
	FirstDay int      `json:"first_day"`
	Days     *int     `json:"days"`
	Box      *wireBox `json:"box"`
	DeltaS   float64  `json:"delta_s"`
	Explain  bool     `json:"explain"`
	// AllowPartial defaults to true when absent: a serving coordinator that
	// lost a shard should answer with the explicitly flagged partial report,
	// not a hard error. Send false to refuse degraded answers (503).
	AllowPartial *bool `json:"allow_partial"`
	BypassShards bool  `json:"bypass_shards"`
}

// wireBox is the optional geographic scope of a POST query.
type wireBox struct {
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
}

// maxQueryBody bounds the POST /query body size.
const maxQueryBody = 1 << 20

// parseQueryRequest builds the facade QueryRequest from either the GET query
// parameters or a POST wireQuery body. Both default to AllowPartial — the
// flagged degraded answer — and the whole-city scope unless POST sends a box.
func parseQueryRequest(r *http.Request) (atypical.QueryRequest, error) {
	if r.Method == http.MethodPost {
		var wq wireQuery
		dec := json.NewDecoder(io.LimitReader(r.Body, maxQueryBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wq); err != nil {
			return atypical.QueryRequest{}, fmt.Errorf("bad request body: %v", err)
		}
		strat, err := parseQueryStrategy(wq.Strategy)
		if err != nil {
			return atypical.QueryRequest{}, err
		}
		req := atypical.QueryRequest{
			FirstDay:     wq.FirstDay,
			Days:         7,
			DeltaS:       wq.DeltaS,
			Strategy:     strat,
			Explain:      wq.Explain,
			AllowPartial: true,
			BypassShards: wq.BypassShards,
		}
		if wq.Days != nil {
			req.Days = *wq.Days
		}
		if wq.AllowPartial != nil {
			req.AllowPartial = *wq.AllowPartial
		}
		if wq.Box != nil {
			req.Box = &atypical.BBox{
				Min: atypical.Point{Lat: wq.Box.MinLat, Lon: wq.Box.MinLon},
				Max: atypical.Point{Lat: wq.Box.MaxLat, Lon: wq.Box.MaxLon},
			}
		}
		return req, nil
	}
	strat, err := parseQueryStrategy(r.URL.Query().Get("strategy"))
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	from, err := param(r, "from", 0, strconv.Atoi)
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	days, err := param(r, "days", 7, strconv.Atoi)
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	wantExplain := false
	switch v := r.URL.Query().Get("explain"); v {
	case "", "0", "false":
	case "1", "true":
		wantExplain = true
	default:
		return atypical.QueryRequest{}, fmt.Errorf("bad explain: %q (want 0 or 1)", v)
	}
	return atypical.QueryRequest{
		FirstDay: from, Days: days, Strategy: strat,
		Explain: wantExplain, AllowPartial: true,
	}, nil
}

// serveQuery answers GET /query?strategy=all|pru|gui&from=N&days=N — or the
// same query as a POST QueryRequest body — under a deadline: a query that
// outlives it (or the client's disconnect) is cancelled through its context
// and answered 503. explain=1 attaches the run's EXPLAIN record; an armed
// -slowquery threshold collects EXPLAIN for every run and logs offenders at
// WARN. Both methods funnel into System.Run, so they answer byte-identically.
func serveQuery(ac apiConfig, w http.ResponseWriter, r *http.Request) {
	req, err := parseQueryRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	if ac.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ac.queryTimeout)
		defer cancel()
	}

	slowArmed := ac.slowQuery >= 0
	wantExplain := req.Explain
	req.Explain = wantExplain || slowArmed
	res, err := ac.sys.Run(ctx, req)
	if err != nil {
		if errors.Is(err, atypical.ErrInvalidRequest) {
			writeRequestError(w, err)
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			errors.Is(err, atypical.ErrPartialResult) {
			status = http.StatusServiceUnavailable
		}
		if errors.Is(err, atypical.ErrPartialResult) {
			if rec := accessRecordFrom(ctx); rec != nil {
				rec.partial.Store(true)
			}
		}
		http.Error(w, err.Error(), status)
		return
	}
	rep, exp := res.Report, res.Explain
	if rep.Partial {
		if rec := accessRecordFrom(ctx); rec != nil {
			rec.partial.Store(true)
		}
	}
	if slowArmed && rep.Elapsed >= ac.slowQuery {
		attrs := []any{
			"strategy", rep.Strategy.String(),
			"from", req.FirstDay, "days", req.Days,
			"elapsed", rep.Elapsed.String(),
			"threshold", ac.slowQuery.String(),
		}
		if data, jerr := json.Marshal(exp); jerr == nil {
			attrs = append(attrs, "explain", string(data))
		}
		ac.logger.WarnContext(ctx, "slow query", attrs...)
	}

	resp := queryResponse{
		Strategy:        rep.Strategy.String(),
		FirstDay:        req.FirstDay,
		Days:            req.Days,
		CandidateMicros: rep.CandidateMicros,
		InputMicros:     rep.InputMicros,
		RedZones:        rep.RedZones,
		Macros:          len(rep.Macros),
		Significant:     len(rep.Significant),
		ElapsedMS:       float64(rep.Elapsed) / float64(time.Millisecond),
		Partial:         rep.Partial,
		FailedShards:    rep.FailedShards,
	}
	if wantExplain {
		resp.Explain = exp
	}
	for _, c := range rep.Significant {
		resp.Clusters = append(resp.Clusters, clusterJSON{
			ID:          uint64(c.ID),
			Severity:    float64(c.Severity()),
			Description: ac.sys.Describe(c),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		ac.logger.Error("encoding response", "err", err)
	}
}

// requestErrorJSON is the structured 400 body for a request that failed
// QueryRequest.Validate: a stable machine-matchable code plus the full error
// text naming the offending field.
type requestErrorJSON struct {
	Error  string `json:"error"`
	Detail string `json:"detail"`
}

// writeRequestError answers a malformed QueryRequest with HTTP 400 and a
// structured JSON body, so clients can branch on the code instead of
// string-matching the detail.
func writeRequestError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(requestErrorJSON{Error: "invalid_request", Detail: err.Error()})
}

// param parses the optional query parameter name with parse; an absent one
// is def.
func param[T any](r *http.Request, name string, def T, parse func(string) (T, error)) (T, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := parse(s)
	if err != nil {
		return def, fmt.Errorf("bad %s: %v", name, err)
	}
	return v, nil
}

// parseQueryStrategy maps /query's strategy to a Strategy; empty means
// guided.
func parseQueryStrategy(s string) (atypical.Strategy, error) {
	if s == "" {
		return atypical.Guided, nil
	}
	return atypical.ParseStrategy(s)
}
