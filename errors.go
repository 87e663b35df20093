package atypical

import (
	"errors"

	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/subscribe"
)

// The error contract of the facade. Every error returned by a System method
// either is one of these sentinels or wraps one, so callers branch with
// errors.Is rather than string matching:
//
//   - ErrInvalidConfig: a Config field or method argument fails validation
//     (NewSystem, NewStreamProcessor, TrainPredictor, and IngestCtx or
//     IngestClusters given a severity that is not finite and positive).
//   - ErrSeverityStale: the severity index lags the forest; Guided queries
//     are refused until RebuildSeverity runs (LoadForest, Run).
//   - ErrUnknownStrategy: a Strategy value outside IntegrateAll/Pruned/
//     Guided reached the engine.
//   - ErrInvalidRequest: a QueryRequest fails Validate — conflicting
//     spatial scopes, a non-positive day count, a negative or non-finite
//     δs, or a malformed window range (Run; atypserve maps it to HTTP 400).
//   - ErrNoData: the requested range holds nothing to operate on
//     (TrainPredictor).
//   - ErrPartialResult: a sharded query lost shards after retry and the
//     request did not opt into partial answers (Run with
//     QueryRequest.AllowPartial unset).
//   - ErrTooManySubscribers: Subscribe would exceed the standing-query cap
//     set by WithSubscriptions.
//
// Context cancellation surfaces as the context's own error
// (context.Canceled, context.DeadlineExceeded), never wrapped in a sentinel.

// ErrInvalidConfig reports a configuration or argument validation failure.
var ErrInvalidConfig = errors.New("atypical: invalid configuration")

// ErrSeverityStale reports that the bottom-up severity index no longer
// matches the forest: the forest was loaded from disk but the index — which
// is not persisted — was not rebuilt. Guided queries would silently return
// nothing against an empty index, so they are refused until RebuildSeverity
// (or a full re-ingest after LoadForestAndRebuild) runs. All- and
// Pruned-strategy queries never consult the index and keep working.
var ErrSeverityStale = errors.New("atypical: severity index is stale; call RebuildSeverity")

// ErrUnknownStrategy reports a Strategy value outside the defined constants.
var ErrUnknownStrategy = query.ErrUnknownStrategy

// ErrInvalidRequest reports a QueryRequest that fails validation before it
// reaches the engine: conflicting spatial scopes (Regions and Box both
// set), a non-positive Days with no Window override, a negative or
// non-finite DeltaS, or
// a Window with negative origin or inverted bounds. Run returns it wrapped
// with the offending field spelled out; atypserve answers HTTP 400 with a
// structured body.
var ErrInvalidRequest = errors.New("atypical: invalid query request")

// ErrNoData reports that the requested operation found nothing to work on,
// e.g. a training range with no micro-clusters.
var ErrNoData = errors.New("atypical: no data in requested range")

// ErrTooManySubscribers reports that Subscribe hit the subscriber cap
// (WithSubscriptions; DefaultMaxSubscribers without it). The cap bounds the
// per-emission evaluation work on the ingest path; raise it deliberately.
var ErrTooManySubscribers = subscribe.ErrRegistryFull

// ErrPartialResult reports that a sharded query would return a partial
// answer (one or more shards failed after retry) and the request refused
// degradation. Opt in with QueryRequest.AllowPartial to receive the partial
// Report — explicitly flagged via Report.Partial — instead of this error.
var ErrPartialResult = errors.New("atypical: partial result: one or more shards failed")
