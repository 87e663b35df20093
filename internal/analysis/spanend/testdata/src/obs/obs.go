// Stub of internal/obs for the spanend fixture: the package-path suffix
// check matches "obs", so this vendored stand-in exercises the analyzer
// without importing the real module.
package obs

import (
	"context"
	"time"
)

// Span is one timed region; only End exports it.
type Span struct{}

// End finishes the span.
func (*Span) End() {}

// EndAt finishes the span at a given instant.
func (*Span) EndAt(at time.Time) {}

// SetAttr attaches a key/value attribute.
func (*Span) SetAttr(k, v string) {}

// Start opens a span below ctx.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	_ = name
	return ctx, nil
}

// StartAt opens a span below ctx at a given instant.
func StartAt(ctx context.Context, name string, at time.Time) (context.Context, *Span) {
	_, _ = name, at
	return ctx, nil
}
