package cluster

// Parallel model construction. Property 2 (algebraic features) makes it
// sound: a micro-cluster is a pure function of its event's records, so
// per-day extraction fans out with no shared state beyond the ID sequence —
// which ExtractMicroClustersDays deals out positionally from a reserved
// block, reproducing the serial numbering byte for byte. Integration has no
// parallel form: Property 3 makes merging commutative and associative, but
// not Algorithm 3's merge chains, so a reassociated integration is a
// different answer, not the same one faster.

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
