package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"strconv"
	"sync/atomic"
	"time"
)

// Spans. A span is one timed region of a pipeline run — an ingest, one of
// its stages, a query. Spans propagate through context.Context: WithExporter
// arms a context, Start opens a span as the child of whatever span the
// context already carries, and End stamps the duration and hands the
// completed span to the exporter. With no exporter in the context, Start
// returns a nil *Span whose methods are no-ops and allocates nothing —
// instrumented code calls Start/End unconditionally.
//
// Every span carries correlation IDs: a SpanID unique within the process, a
// TraceID shared by every span under the same root, and the ParentID of its
// enclosing span (0 at the root). The IDs let log lines (internal/obs/olog)
// and the trace ring (/debug/traces) join on the same request. They are
// drawn from a process-local atomic counter — cheap, collision-free within
// a process, and only drawn when an exporter is armed, so the disabled path
// stays allocation- and atomics-free.

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one completed (or in-flight) timed region. Fields are written by
// exactly one goroutine between Start and End; the exporter receives the
// span by value after End and may retain it.
type Span struct {
	// Name identifies the region, dot-scoped ("ingest.extract").
	Name string
	// Parent is the enclosing span's name, "" at the root.
	Parent string
	// TraceID groups every span of one root region; inherited from the
	// parent span, freshly drawn at the root.
	TraceID uint64
	// SpanID uniquely identifies this span within the process.
	SpanID uint64
	// ParentID is the enclosing span's SpanID, 0 at the root.
	ParentID uint64
	// Remote marks a span whose parent lives in another process: TraceID
	// and ParentID were extracted from an inbound traceparent header. The
	// trace ring publishes such spans as local roots — their true parent
	// will never End in this process.
	Remote bool
	// Start is the opening wall-clock instant.
	Start time.Time
	// Duration is stamped by End.
	Duration time.Duration
	// Attrs carries span annotations, in SetAttr order.
	Attrs []Attr

	exporter SpanExporter
}

// idCounter deals process-unique span and trace IDs. It is seeded once per
// process from crypto/rand so IDs from distinct processes land in disjoint
// ranges with overwhelming probability — two shard servers must not both
// mint TraceID 1 when their traces are stitched on a coordinator. Within a
// process IDs stay monotonic (cheap atomic increment, no per-span entropy).
var idCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(b[:]))
	}
	// On entropy failure the counter starts at 0 — in-process uniqueness
	// (the correctness property) is preserved either way.
}

// nextID returns a fresh non-zero ID; 0 stays the "absent" sentinel even
// when the seeded counter wraps past it.
func nextID() uint64 {
	for {
		if id := idCounter.Add(1); id != 0 {
			return id
		}
	}
}

// TraceHex renders the trace ID as fixed-width hex, the form log lines and
// the /debug/traces JSON share.
func (s *Span) TraceHex() string { return idHex(s.TraceID) }

// SpanHex renders the span ID as fixed-width hex.
func (s *Span) SpanHex() string { return idHex(s.SpanID) }

// idHex renders an ID as 16 hex digits.
func idHex(id uint64) string {
	const digits = 16
	buf := make([]byte, 0, digits)
	buf = strconv.AppendUint(buf, id, 16)
	for len(buf) < digits {
		buf = append([]byte{'0'}, buf...)
	}
	return string(buf)
}

// SpanExporter receives each completed span. Exporters must be safe for
// concurrent calls: spans end on whatever goroutine ran the region.
type SpanExporter func(Span)

type exporterKey struct{}
type spanKey struct{}

// WithExporter arms a context: spans started below it are exported to exp.
// A nil exp returns ctx unchanged.
func WithExporter(ctx context.Context, exp SpanExporter) context.Context {
	if exp == nil {
		return ctx
	}
	return context.WithValue(ctx, exporterKey{}, exp)
}

// HasExporter reports whether ctx already carries a span exporter.
func HasExporter(ctx context.Context) bool {
	exp, _ := ctx.Value(exporterKey{}).(SpanExporter)
	return exp != nil
}

// SpanFromContext returns the span ctx is currently inside, or nil. Log
// handlers use it to stamp trace/span IDs onto records.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Start opens a span named name if ctx carries an exporter, recording the
// context's current span as its parent, and returns a context carrying the
// new span. Without an exporter it returns ctx and a nil span — the
// zero-overhead disabled path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	exp, _ := ctx.Value(exporterKey{}).(SpanExporter)
	if exp == nil {
		return ctx, nil
	}
	return start(ctx, exp, name, time.Now())
}

// StartAt is Start with a caller-supplied opening instant, for callers that
// already read the clock at the region's boundary and want the span to
// share that reading. Paired with EndAt, the span's Duration equals the
// caller's own measurement to the nanosecond. The disabled path reads no
// clock at all.
func StartAt(ctx context.Context, name string, at time.Time) (context.Context, *Span) {
	exp, _ := ctx.Value(exporterKey{}).(SpanExporter)
	if exp == nil {
		return ctx, nil
	}
	return start(ctx, exp, name, at)
}

// start opens an armed span at the given instant.
func start(ctx context.Context, exp SpanExporter, name string, at time.Time) (context.Context, *Span) {
	s := &Span{Name: name, SpanID: nextID(), Start: at, exporter: exp}
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		s.Parent = parent.Name
		s.TraceID = parent.TraceID
		s.ParentID = parent.SpanID
	} else if rp, ok := ctx.Value(remoteParentKey{}).(remoteParent); ok {
		// No local parent, but the context carries an extracted traceparent:
		// continue the caller's trace across the process boundary.
		s.TraceID = rp.traceID
		s.ParentID = rp.spanID
		s.Remote = true
	} else {
		s.TraceID = nextID()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr annotates the span; no-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	}
}

// End stamps the duration and exports the span; no-op on nil. End must be
// called at most once, on the goroutine that ran the region.
func (s *Span) End() {
	if s != nil {
		s.EndAt(time.Now())
	}
}

// EndAt is End with a caller-supplied closing instant (see StartAt); no-op
// on nil.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.Duration = at.Sub(s.Start)
	s.exporter(*s)
}
