// Package flight is the per-query flight recorder: one structured wide
// event per Run (and per subscription stream), carrying everything needed
// to answer "why was this query slow?" after the fact — trace ID, canonical
// query key, strategy, cache verdict and severity generation, per-shard
// fan-out latencies/retries, pipeline stage timings, and the SLO verdict —
// without grepping logs or re-running the query.
//
// Events land in a bounded lock-free ring with head sampling for normal
// queries and tail-keep for the interesting ones: slow, errored, or partial
// events are always recorded regardless of the sampling rate, because the
// p999 outlier is exactly the event the recorder exists for.
//
// The package is context-armed like EXPLAIN: the facade calls WithEvent to
// attach an Event to the request context, the query engine's stage recorder
// stamps the run's fields when the run finishes, and the facade adds the
// request-level fields and records the event. An unarmed context costs the
// engine one context lookup per run and nothing else.
package flight

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// ShardCall is one shard's contribution to a scatter fan-out.
type ShardCall struct {
	// Name is the shard backend's name.
	Name string `json:"name"`
	// DurationNS is the wall-clock time of the shard call including retry.
	DurationNS int64 `json:"duration_ns"`
	// Retried reports whether the first attempt failed and was retried.
	Retried bool `json:"retried,omitempty"`
	// Failed reports whether the shard was lost after retry.
	Failed bool `json:"failed,omitempty"`
}

// Stage is one timed pipeline stage with its input/output cardinalities.
// The query EXPLAIN record lists the same values (query.ExplainStage is this
// type), read from the same clock.
type Stage struct {
	Name       string `json:"name"`
	In         int    `json:"in"`
	Out        int    `json:"out"`
	DurationNS int64  `json:"duration_ns"`
}

// SLOVerdict records how the run fared against its strategy's latency SLO.
type SLOVerdict struct {
	// TargetNS is the strategy's latency target.
	TargetNS int64 `json:"target_ns"`
	// Met reports whether the run came in under the target.
	Met bool `json:"met"`
}

// Event is one wide event: the full story of a single query or
// subscription stream, denormalized so one record answers the question.
type Event struct {
	// Time is when the request started.
	Time time.Time `json:"time"`
	// Kind is "query" or "subscribe".
	Kind string `json:"kind"`
	// TraceID is the hex trace ID shared with /debug/traces and log lines;
	// empty when spans were not armed.
	TraceID string `json:"trace_id,omitempty"`
	// Key is the canonical query key (the answer-cache key).
	Key string `json:"key,omitempty"`
	// Strategy is the executed strategy's paper label.
	Strategy string `json:"strategy,omitempty"`
	// Source names the entry point ("facade", "http", "/subscribe").
	Source string `json:"source,omitempty"`
	// DurationNS is the end-to-end wall-clock time.
	DurationNS int64 `json:"duration_ns"`
	// Err is the error string for failed runs.
	Err string `json:"err,omitempty"`

	// Cache is the answer-cache verdict: "hit", "miss", or "off".
	Cache string `json:"cache,omitempty"`
	// ForestVersion is the forest version the run observed.
	ForestVersion uint64 `json:"forest_version,omitempty"`
	// SeverityGen is the severity-index generation the run observed.
	SeverityGen uint64 `json:"severity_gen,omitempty"`

	// Candidates/Inputs/Significant are the run's cardinalities: candidates
	// scanned, clusters integrated, significant clusters answered.
	Candidates  int `json:"candidates,omitempty"`
	Inputs      int `json:"inputs,omitempty"`
	Significant int `json:"significant,omitempty"`

	// Partial and FailedShards surface degraded scatter-gather answers.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failed_shards,omitempty"`
	// Shards holds the per-shard fan-out timings, in shard order.
	Shards []ShardCall `json:"shards,omitempty"`
	// Stages holds the pipeline stage timings, in execution order.
	Stages []Stage `json:"stages,omitempty"`
	// SLO is the latency-SLO verdict, nil when no SLO is armed.
	SLO *SLOVerdict `json:"slo,omitempty"`

	// Subscription stream counters (Kind "subscribe").
	Pushes  uint64 `json:"pushes,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	Gaps    uint64 `json:"gaps,omitempty"`
	// MaxPushLatencyNS is the worst emit-to-write latency observed.
	MaxPushLatencyNS int64 `json:"max_push_latency_ns,omitempty"`
}

// eventKey arms a context with an *Event.
type eventKey struct{}

// WithEvent attaches a fresh Event to ctx for inner layers to stamp.
func WithEvent(ctx context.Context) (context.Context, *Event) {
	ev := &Event{}
	return context.WithValue(ctx, eventKey{}, ev), ev
}

// EventFromContext returns the armed event, or nil.
func EventFromContext(ctx context.Context) *Event {
	ev, _ := ctx.Value(eventKey{}).(*Event)
	return ev
}

// Recorder is the bounded ring of recorded events. Like the trace ring it
// is lock-free: an atomic cursor increment plus an atomic pointer store per
// record, atomic loads per snapshot.
type Recorder struct {
	slots  []atomic.Pointer[Event]
	cursor atomic.Uint64

	sampleEvery uint64        // keep 1 of every N normal events; <=1 keeps all
	slowNS      int64         // events at/above always kept; <=0 disables
	seen        atomic.Uint64 // normal-event counter driving head sampling

	recorded atomic.Uint64 // events kept
	sampled  atomic.Uint64 // normal events dropped by head sampling
}

// Config sizes and tunes a Recorder.
type Config struct {
	// Entries is the ring capacity; < 1 is raised to 1.
	Entries int
	// SampleEvery keeps 1 of every N normal events (head sampling);
	// <= 1 keeps every event.
	SampleEvery int
	// Slow is the tail-keep threshold: events at least this slow are always
	// recorded regardless of sampling. <= 0 applies tail-keep only to
	// errored and partial events.
	Slow time.Duration
}

// NewRecorder returns a recorder with the given configuration.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Entries < 1 {
		cfg.Entries = 1
	}
	r := &Recorder{slots: make([]atomic.Pointer[Event], cfg.Entries)}
	if cfg.SampleEvery > 1 {
		r.sampleEvery = uint64(cfg.SampleEvery)
	}
	r.slowNS = cfg.Slow.Nanoseconds()
	return r
}

// interesting reports whether ev bypasses head sampling: errors, partial
// answers, and slow runs are always kept.
func (r *Recorder) interesting(ev *Event) bool {
	if ev.Err != "" || ev.Partial {
		return true
	}
	return r.slowNS > 0 && ev.DurationNS >= r.slowNS
}

// Record stores a copy of ev into the ring, subject to head sampling.
// Nil-safe on both receiver and event.
func (r *Recorder) Record(ev *Event) {
	if r == nil || ev == nil {
		return
	}
	if !r.interesting(ev) && r.sampleEvery > 1 {
		if r.seen.Add(1)%r.sampleEvery != 1 {
			r.sampled.Add(1)
			return
		}
	}
	cp := *ev
	r.recorded.Add(1)
	seq := r.cursor.Add(1)
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&cp)
}

// Snapshot returns the recorded events, newest first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := uint64(len(r.slots))
	head := r.cursor.Load()
	out := make([]Event, 0, n)
	for i := uint64(0); i < n && i < head; i++ {
		ev := r.slots[(head-1-i)%n].Load()
		if ev == nil {
			break // older slot not yet published by a lagging writer
		}
		out = append(out, *ev)
	}
	return out
}

// Stats reports the recorder's keep/drop counters: events recorded and
// normal events dropped by head sampling.
func (r *Recorder) Stats() (recorded, sampledOut uint64) {
	if r == nil {
		return 0, 0
	}
	return r.recorded.Load(), r.sampled.Load()
}

// Handler serves the ring as JSON (default) or plain text
// (?format=text), newest event first — the /debug/querylog surface.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		events := r.Snapshot()
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, ev := range events {
				fmt.Fprintln(w, ev.Line())
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events) // headers sent; a broken pipe has no recovery
	})
}

// Line renders the event as one human-scannable text line.
func (ev Event) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s kind=%s", ev.Time.Format(time.RFC3339Nano), ev.Kind)
	if ev.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", ev.TraceID)
	}
	if ev.Strategy != "" {
		fmt.Fprintf(&b, " strategy=%s", ev.Strategy)
	}
	fmt.Fprintf(&b, " dur=%s", time.Duration(ev.DurationNS))
	if ev.Cache != "" {
		fmt.Fprintf(&b, " cache=%s", ev.Cache)
	}
	if ev.Partial {
		fmt.Fprintf(&b, " partial=true failed=%s", strings.Join(ev.FailedShards, ","))
	}
	if len(ev.Shards) > 0 {
		fmt.Fprintf(&b, " shards=%d", len(ev.Shards))
	}
	if ev.SLO != nil {
		fmt.Fprintf(&b, " slo_met=%v", ev.SLO.Met)
	}
	if ev.Kind == "subscribe" {
		fmt.Fprintf(&b, " pushes=%d dropped=%d gaps=%d", ev.Pushes, ev.Dropped, ev.Gaps)
	}
	if ev.Err != "" {
		fmt.Fprintf(&b, " err=%q", ev.Err)
	}
	if ev.Key != "" {
		fmt.Fprintf(&b, " key=%q", ev.Key)
	}
	return b.String()
}
