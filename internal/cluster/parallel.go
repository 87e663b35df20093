package cluster

// Parallel model construction. Two licenses from the paper make this sound:
//
//   - Property 2 (algebraic features): a micro-cluster is a pure function of
//     its event's records, so per-day extraction fans out with no shared
//     state beyond the ID sequence — which ExtractMicroClustersDays deals
//     out positionally from a reserved block, reproducing the serial
//     numbering byte for byte.
//   - Property 3 (commutative, associative merging): integration may be
//     reassociated into a chunked pairwise-merge tree. IntegrateParallel
//     fixes the chunk boundaries and the reduction tree by input length
//     alone, so its output is identical for every worker count and
//     GOMAXPROCS setting (though not to Integrate's; see below).
//
// IntegrateParallel's result satisfies the same fixpoint postcondition as
// Integrate (no surviving pair above δsim) and agrees with the serial path
// on the resulting partition for workloads whose clusters are separated by
// the threshold (see the equivalence tests); because the merge *order*
// differs, cluster IDs and float rounding in the low bits may differ from
// Integrate's. Intermediate tree nodes carry the sentinel ID 0; only
// surviving macro-clusters are renumbered, in output order, from gen.

import (
	"context"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/par"
)

// DayRecords pairs a day index with that day's canonical records — the unit
// of work for parallel offline construction.
type DayRecords struct {
	Day     int
	Records []cps.Record
}

// ExtractMicroClustersDays runs Algorithm 1 over every day partition on up
// to `workers` goroutines and returns the micro-clusters per day, positioned
// like the input. The assigned IDs are exactly those the serial loop
//
//	for each day (ascending): ExtractMicroClusters(gen, recs, ...)
//
// would have produced, provided days are passed in ascending order: the
// total event count is reserved from gen as one block and dealt out by (day,
// event) position. Cancelling ctx abandons the batch; days never ingest
// partially.
//
//atyplint:deterministic
func ExtractMicroClustersDays(ctx context.Context, gen *IDGen, days []DayRecords, neighbors [][]cps.SensorID, maxGap, workers int) ([][]*Cluster, error) {
	if len(days) == 0 {
		return nil, ctx.Err()
	}
	// Phase 1: event extraction, the dominant cost, in parallel per day.
	events := make([][][]cps.Record, len(days))
	if err := par.Do(ctx, len(days), workers, func(i int) error {
		events[i] = ExtractEvents(days[i].Records, neighbors, maxGap)
		return nil
	}); err != nil {
		return nil, err
	}
	// Phase 2: reserve the ID block, then summarize events in parallel with
	// positionally determined IDs.
	total := 0
	offset := make([]int, len(days))
	for i, evs := range events {
		offset[i] = total
		total += len(evs)
	}
	base := gen.Reserve(total)
	out := make([][]*Cluster, len(days))
	if err := par.Do(ctx, len(days), workers, func(i int) error {
		micros := make([]*Cluster, len(events[i]))
		for j, ev := range events[i] {
			micros[j] = FromRecords(base+ID(offset[i]+j), ev)
		}
		out[i] = micros
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// integrateChunkSize is the leaf width of the parallel merge tree. It is a
// fixed constant — never derived from the worker count — so the tree shape,
// and with it the integration result, depends only on the input.
const integrateChunkSize = 128

// IntegrateChunkSize exports the fixed merge-tree leaf width for
// introspection surfaces (query EXPLAIN reports the tree shape).
const IntegrateChunkSize = integrateChunkSize

// MergeTreeWidths returns the node count at each level of the fixed
// reduction tree IntegrateParallelCtx builds for n inputs: widths[0] is the
// leaf chunk count, each next level halves (odd tails carry), and the last
// entry is always 1. n <= 1 short-circuits integration entirely and yields
// nil. Because the tree is a function of n alone, EXPLAIN can report the
// exact shape without instrumenting the reduction.
func MergeTreeWidths(n int) []int {
	if n <= 1 {
		return nil
	}
	width := (n + integrateChunkSize - 1) / integrateChunkSize
	widths := []int{width}
	for width > 1 {
		width = (width + 1) / 2
		widths = append(widths, width)
	}
	return widths
}

// IntegrateParallel is Integrate as a chunked pairwise-merge tree reduction:
// fixed-size chunks integrate independently, then neighbors combine level by
// level until one cluster set remains. See the package comment above for the
// determinism contract. Workers <= 0 means one per CPU.
//
//atyplint:deterministic
func IntegrateParallel(gen *IDGen, micros []*Cluster, opts IntegrateOptions, workers int) []*Cluster {
	out, err := IntegrateParallelCtx(context.Background(), gen, micros, opts, workers)
	if err != nil {
		// Background contexts cannot cancel and chunk integration cannot
		// fail; an error here is a programming bug.
		panic(err)
	}
	return out
}

// IntegrateParallelCtx is IntegrateParallel with cooperative cancellation:
// between chunks and reduction levels the context is polled, and a cancelled
// context abandons the reduction with ctx's error.
//
//atyplint:deterministic
func IntegrateParallelCtx(ctx context.Context, gen *IDGen, micros []*Cluster, opts IntegrateOptions, workers int) ([]*Cluster, error) {
	if opts.SimThreshold <= 0 {
		panic("cluster: IntegrateOptions.SimThreshold must be positive")
	}
	n := len(micros)
	if n <= 1 {
		out := make([]*Cluster, n)
		copy(out, micros)
		return out, ctx.Err()
	}
	zeroID := func() ID { return 0 }

	// Leaves: fixed-size chunks in input order.
	groups := make([][]*Cluster, 0, (n+integrateChunkSize-1)/integrateChunkSize)
	for lo := 0; lo < n; lo += integrateChunkSize {
		hi := lo + integrateChunkSize
		if hi > n {
			hi = n
		}
		groups = append(groups, micros[lo:hi])
	}
	results := make([][]*Cluster, len(groups))
	if err := par.Do(ctx, len(groups), workers, func(i int) error {
		results[i] = integrateCore(groups[i], opts, zeroID)
		return nil
	}); err != nil {
		return nil, err
	}

	// Reduction: combine adjacent pairs level by level. An odd tail carries
	// to the next level unchanged, keeping the tree shape a function of the
	// leaf count only.
	for len(results) > 1 {
		next := make([][]*Cluster, (len(results)+1)/2)
		if err := par.Do(ctx, len(next), workers, func(i int) error {
			a := results[2*i]
			if 2*i+1 == len(results) {
				next[i] = a
				return nil
			}
			b := results[2*i+1]
			combined := make([]*Cluster, 0, len(a)+len(b))
			combined = append(combined, a...)
			combined = append(combined, b...)
			next[i] = integrateCore(combined, opts, zeroID)
			return nil
		}); err != nil {
			return nil, err
		}
		results = next
	}
	out := results[0]

	// Renumber the macro-clusters created by this reduction (clusters that
	// are not aliases of inputs), in output order — a deterministic sequence
	// of gen draws independent of scheduling.
	inputs := make(map[*Cluster]struct{}, n)
	for _, c := range micros {
		inputs[c] = struct{}{}
	}
	for _, c := range out {
		if _, isInput := inputs[c]; !isInput {
			c.ID = gen.Next()
		}
	}
	return out, nil
}
