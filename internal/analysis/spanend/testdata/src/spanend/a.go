// Fixture for the spanend analyzer: spans opened with obs.Start must be
// ended or returned; discarded and leaked spans are flagged.
package spanend

import (
	"context"
	"time"

	"obs"
)

func goodDefer(ctx context.Context) {
	ctx, sp := obs.Start(ctx, "good")
	defer sp.End()
	_ = ctx
}

func goodDirect(ctx context.Context) {
	_, sp := obs.Start(ctx, "direct")
	sp.SetAttr("k", "v")
	sp.End()
}

func goodDeferredClosure(ctx context.Context) {
	_, sp := obs.Start(ctx, "closure")
	defer func() { sp.End() }()
}

func goodReturnDirect(ctx context.Context) (context.Context, *obs.Span) {
	return obs.Start(ctx, "handoff")
}

func goodReturnIdent(ctx context.Context) (context.Context, *obs.Span) {
	ctx, sp := obs.Start(ctx, "handoff2")
	return ctx, sp
}

func goodEarlyReturn(ctx context.Context, fail bool) error {
	_, sp := obs.Start(ctx, "early")
	if fail {
		sp.End()
		return nil
	}
	sp.End()
	return nil
}

// goodStartAt: the explicit-instant pair carries the same obligation.
func goodStartAt(ctx context.Context, at time.Time) {
	_, sp := obs.StartAt(ctx, "at", at)
	sp.EndAt(at)
}

func badStartAtLeak(ctx context.Context, at time.Time) {
	_, sp := obs.StartAt(ctx, "at-leak", at) // want `span sp is neither ended nor returned`
	sp.SetAttr("k", "v")
}

func badLeak(ctx context.Context) {
	_, sp := obs.Start(ctx, "leak") // want `span sp is neither ended nor returned`
	sp.SetAttr("k", "v")
}

func badBlank(ctx context.Context) {
	ctx, _ = obs.Start(ctx, "blank") // want `span returned by obs\.Start is discarded`
	_ = ctx
}

func badDiscard(ctx context.Context) {
	obs.Start(ctx, "discard") // want `span returned by obs\.Start is discarded`
}

// badNested: each function literal owns its own Start calls; the outer span
// ending does not cover the inner leak.
func badNested(ctx context.Context) {
	_, sp := obs.Start(ctx, "outer")
	defer sp.End()
	go func() {
		_, inner := obs.Start(ctx, "inner") // want `span inner is neither ended nor returned`
		inner.SetAttr("k", "v")
	}()
}

// goodEndInGoroutine: End anywhere in the body satisfies the rule, nested
// literals included — the span's lifetime legitimately outlives the frame.
func goodEndInGoroutine(ctx context.Context) {
	_, sp := obs.Start(ctx, "async")
	go func() { sp.End() }()
}

// lookalike is a Start from a non-obs package path (this fixture package
// itself): not the analyzer's concern.
func lookalike(ctx context.Context) {
	Start(ctx, "nope")
}

// Start is a package-local lookalike.
func Start(ctx context.Context, name string) (context.Context, *obs.Span) {
	_ = name
	return ctx, nil
}
