package atypical

import (
	"context"
	"net/http"
	"time"

	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/obs/flight"
	"github.com/cpskit/atypical/internal/query"
)

// sloSpec is one WithQuerySLO request, applied after the engine's metrics
// are wired in NewSystem.
type sloSpec struct {
	strat  Strategy
	target SLOTarget
}

// This file surfaces the internal/obs observability layer through the
// facade. Attach a registry with WithObserver to have every pipeline stage
// record metrics into it; attach a SpanExporter with WithSpanExporter to
// receive timed spans for ingests and queries. Both are strictly
// result-neutral: with neither configured every hook is a nil-check no-op,
// and with them configured the answers are byte-identical (the byte-identity
// tests run with an observer attached).

// Observer is a metrics registry: counters, gauges and fixed-bucket
// histograms behind lock-free atomic handles. Share one Observer across
// systems to aggregate, or give each its own.
type Observer = obs.Registry

// NewObserver returns an empty metrics registry.
func NewObserver() *Observer { return obs.NewRegistry() }

// Snapshot is a point-in-time, deterministically ordered copy of every
// series in an Observer.
type Snapshot = obs.Snapshot

// Sample is one series in a Snapshot.
type Sample = obs.Sample

// HistogramSnapshot is a histogram's bucket counts, total and sum.
type HistogramSnapshot = obs.HistogramSnapshot

// Span is one timed region of a pipeline run, delivered to the configured
// SpanExporter when it ends.
type Span = obs.Span

// SpanExporter receives each completed span; it must be safe for concurrent
// calls.
type SpanExporter = obs.SpanExporter

// WithObserver attaches a metrics registry to the system: ingest stages,
// query strategies, forest writes and storage I/O, and API errors all
// record into r. A nil r leaves observability off (the default).
func WithObserver(r *Observer) Option {
	return func(o *systemOptions) { o.registry = r }
}

// WithSpanExporter attaches a span exporter: every IngestCtx/Run entry point
// runs under a root span with stage child spans ("ingest.extract",
// "query.integrate", ...). Ctx variants inherit any exporter already armed
// on the caller's context in preference to this one.
func WithSpanExporter(exp SpanExporter) Option {
	return func(o *systemOptions) { o.exporter = exp }
}

// WithSpanContext arms ctx with exp for the Ctx entry points: spans of calls
// made with this context go to exp, taking precedence over any system-level
// WithSpanExporter. Use it to trace a single request.
func WithSpanContext(ctx context.Context, exp SpanExporter) context.Context {
	return obs.WithExporter(ctx, exp)
}

// NewDebugMux returns an http.ServeMux serving r at /metrics (Prometheus
// text format) and the net/http/pprof suite under /debug/pprof/. Passing a
// TraceRing additionally mounts /debug/traces serving its newest-first
// span snapshot as JSON. Mount it on an operational listener; cmd/atypserve
// does exactly this.
func NewDebugMux(r *Observer, rings ...*TraceRing) *http.ServeMux {
	return obs.NewDebugMux(r, rings...)
}

// RegisterRuntimeMetrics registers Go runtime vitals on r — goroutine and
// heap gauges, GC cycle count and pause histogram, and the
// atyp_build_info{go_version,vcs_revision} join gauge — refreshed at each
// scrape via the registry's collect hook. Nil-safe.
func RegisterRuntimeMetrics(r *Observer) { obs.RegisterRuntimeMetrics(r) }

// TraceRing is a fixed-size lock-free buffer of the most recent finished
// root spans with their children — the storage behind /debug/traces. A ring
// is a SpanExporter: attach it with WithSpanExporter or WithSpanContext.
type TraceRing = obs.TraceRing

// Trace is one assembled root span with its child spans.
type Trace = obs.Trace

// NewTraceRing returns a ring retaining the last n finished traces.
func NewTraceRing(n int) *TraceRing { return obs.NewTraceRing(n) }

// Explain is the structured EXPLAIN record of one query run: strategy,
// significance bound arithmetic, per-stage timings and cardinalities,
// pruning and red-zone accounting, the forest version read, the
// integration's input and macro counts, and per-macro significance
// verdicts.
type Explain = query.Explain

// SLOTarget is a per-strategy latency objective; see WithQuerySLO.
type SLOTarget = query.SLOTarget

// WithQuerySLO installs a latency service-level objective for one query
// strategy: at least target.Objective of runs should finish within
// target.Latency. The attached Observer (WithObserver is required for this
// option to have any effect) gains atyp_slo_breaches_total and the
// atyp_slo_burn_rate gauge — breach fraction over the error budget
// 1-objective, where a value above 1 means the objective is being missed.
func WithQuerySLO(strat Strategy, target SLOTarget) Option {
	return func(o *systemOptions) {
		o.slos = append(o.slos, sloSpec{strat: strat, target: target})
	}
}

// StartSpan opens a span named name when ctx carries a span exporter
// (WithSpanContext), as the child of the context's current span — or, with
// no local parent, of a remote parent extracted from a traceparent header.
// Without an exporter it returns ctx and a nil no-op span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.Start(ctx, name)
}

// SpanFromContext returns the span ctx is currently inside, or nil.
func SpanFromContext(ctx context.Context) *Span { return obs.SpanFromContext(ctx) }

// InjectTraceparent writes the context's current span onto h as a W3C
// traceparent header for an outbound hop; no-op when ctx carries no span.
func InjectTraceparent(ctx context.Context, h http.Header) { obs.InjectTraceparent(ctx, h) }

// ExtractTraceparent reads a traceparent header from h into the returned
// context: the next span started below it with no local parent continues
// the remote trace (and is published as a local root by trace rings).
// Returns ctx unchanged when the header is absent or malformed.
func ExtractTraceparent(ctx context.Context, h http.Header) context.Context {
	return obs.ExtractTraceparent(ctx, h)
}

// QueryLogEvent is one wide event of the per-query flight recorder: the
// full story of a single Run (or subscription stream) — trace ID, canonical
// query key, strategy, cache verdict, per-shard fan-out timings, EXPLAIN
// stage timings, and the SLO verdict — in one denormalized record.
type QueryLogEvent = flight.Event

// QueryLogConfig sizes and tunes the flight recorder; see WithQueryLog.
type QueryLogConfig = flight.Config

// WithQueryLog arms the per-query flight recorder: every Run records one
// QueryLogEvent into a bounded ring of cfg.Entries events. Normal events are
// head-sampled (cfg.SampleEvery keeps 1 of every N; <= 1 keeps all), while
// slow (>= cfg.Slow), errored, and partial events are always kept — the
// outliers are the events the recorder exists for. Recording is strictly
// answer-neutral: reports are byte-identical with the recorder on or off.
func WithQueryLog(cfg QueryLogConfig) Option {
	return func(o *systemOptions) { o.querylog = cfg; o.querylogSet = true }
}

// QueryLog returns the recorded flight events, newest first; nil when
// WithQueryLog is not configured.
func (s *System) QueryLog() []QueryLogEvent { return s.qlog.Snapshot() }

// QueryLogHandler serves the flight recorder as JSON (or plain text with
// ?format=text), newest first — the /debug/querylog surface. Returns nil
// when WithQueryLog is not configured.
func (s *System) QueryLogHandler() http.Handler {
	if s.qlog == nil {
		return nil
	}
	return s.qlog.Handler()
}

// RecordQueryLog records an externally assembled event — e.g. a subscription
// stream teardown summary — into the flight recorder. No-op when
// WithQueryLog is not configured or ev is nil.
func (s *System) RecordQueryLog(ev *QueryLogEvent) { s.qlog.Record(ev) }

// Observer returns the registry attached via WithObserver, or nil.
func (s *System) Observer() *Observer { return s.registry }

// Metrics returns a point-in-time snapshot of the attached Observer; an
// empty snapshot when none is attached.
func (s *System) Metrics() Snapshot { return s.registry.Snapshot() }

// systemObs bundles the facade-level metric handles: ingest volume and
// stage timings, plus API-error counters. The nil *systemObs disables all
// of them.
type systemObs struct {
	ingestRecords *obs.Counter
	ingestDays    *obs.Counter
	ingestMicros  *obs.Counter
	stageExtract  *obs.Histogram
	stageAppend   *obs.Histogram
	stageSeverity *obs.Histogram
	ingestErrors  *obs.Counter
	queryErrors   *obs.Counter
}

// newSystemObs registers the facade metric families; nil in, nil out.
func newSystemObs(r *obs.Registry) *systemObs {
	if r == nil {
		return nil
	}
	return &systemObs{
		ingestRecords: r.Counter("atyp_ingest_records_total",
			"atypical records consumed by IngestCtx"),
		ingestDays: r.Counter("atyp_ingest_days_total",
			"days of data handed to the forest"),
		ingestMicros: r.Counter("atyp_ingest_micros_total",
			"micro-clusters extracted during ingest"),
		stageExtract: r.Histogram("atyp_ingest_stage_seconds",
			"wall-clock seconds per ingest stage", nil, "stage", "extract"),
		stageAppend: r.Histogram("atyp_ingest_stage_seconds",
			"wall-clock seconds per ingest stage", nil, "stage", "append"),
		stageSeverity: r.Histogram("atyp_ingest_stage_seconds",
			"wall-clock seconds per ingest stage", nil, "stage", "severity"),
		ingestErrors: r.Counter("atyp_api_errors_total",
			"errors returned by facade entry points", "op", "ingest"),
		queryErrors: r.Counter("atyp_api_errors_total",
			"errors returned by facade entry points", "op", "query"),
	}
}

// now returns the wall clock when stage timings are armed, the zero time
// otherwise — keeping the disabled path clock-free.
func (m *systemObs) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *systemObs) extractDone(start time.Time) {
	if m != nil {
		m.stageExtract.ObserveSince(start)
	}
}

func (m *systemObs) appendDone(start time.Time) {
	if m != nil {
		m.stageAppend.ObserveSince(start)
	}
}

func (m *systemObs) severityDone(start time.Time) {
	if m != nil {
		m.stageSeverity.ObserveSince(start)
	}
}

// ingested records one completed ingest's volume.
func (m *systemObs) ingested(records, days, micros int64) {
	if m != nil {
		m.ingestRecords.Add(records)
		m.ingestDays.Add(days)
		m.ingestMicros.Add(micros)
	}
}

func (m *systemObs) ingestError() {
	if m != nil {
		m.ingestErrors.Inc()
	}
}

func (m *systemObs) queryError() {
	if m != nil {
		m.queryErrors.Inc()
	}
}
