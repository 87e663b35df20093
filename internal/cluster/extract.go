package cluster

import (
	"time"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/dsu"
	"github.com/cpskit/atypical/internal/geo"
)

// MaxWindowGap converts the paper's time interval threshold δt into the
// largest window-index gap that still links two records: records ri, rj are
// temporally related iff interval(ti, tj) < δt, i.e. |wi−wj|·width < δt.
func MaxWindowGap(deltaT, width time.Duration) int {
	if deltaT <= 0 || width <= 0 {
		return 0
	}
	gap := int((deltaT - 1) / width)
	return gap
}

// ExtractEvents partitions canonical records into atypical events
// (Definition 3): the connected components of the "direct atypical related"
// relation (Definition 1 — sensors within δd and windows within δt).
//
// neighbors[s] must list the sensors strictly within δd of s (e.g. from
// index.NewNeighborIndex(...).NeighborLists()), so the lists are symmetric;
// maxGap is MaxWindowGap(δt, width). Events are returned with records in
// canonical order, sorted by first record.
//
// One sweep in canonical order links each record to the latest earlier
// record of its own sensor and of each neighbor, when that record is within
// maxGap windows: O(N + n·|neighbors|) for N sensors and n records, the
// indexed path of Proposition 1. Linking to the latest record suffices: an
// earlier record of that sensor within maxGap of this one lies between the
// two in time, so the sweep has already chained it to the latest through
// the sensor's own links. A pair whose later record belongs to the other
// sensor is linked from that side, as the lists are symmetric.
// stream.Processor.Observe applies the same rule record by record.
func ExtractEvents(recs []cps.Record, neighbors [][]cps.SensorID, maxGap int) [][]cps.Record {
	if len(recs) == 0 {
		return nil
	}
	// lastPos[s] is the position of sensor s's latest record so far (-1
	// before its first) and lastWin[s] that record's window.
	lastPos := make([]int, len(neighbors))
	lastWin := make([]cps.Window, len(neighbors))
	for s := range lastPos {
		lastPos[s] = -1
	}
	gap := cps.Window(maxGap)
	d := dsu.New(len(recs))
	for i, r := range recs {
		if j := lastPos[r.Sensor]; j >= 0 && r.Window-lastWin[r.Sensor] <= gap {
			d.Union(i, j)
		}
		for _, nb := range neighbors[r.Sensor] {
			if j := lastPos[nb]; j >= 0 && r.Window-lastWin[nb] <= gap {
				d.Union(i, j)
			}
		}
		lastPos[r.Sensor] = i
		lastWin[r.Sensor] = r.Window
	}
	return componentsToEvents(recs, d)
}

// ExtractEventsBrute is the unindexed O(n²) pairwise variant of Proposition
// 1, kept as the correctness oracle and ablation baseline. locs maps
// SensorID to location; deltaD is the distance threshold in miles.
func ExtractEventsBrute(recs []cps.Record, locs []geo.Point, deltaD float64, maxGap int) [][]cps.Record {
	if len(recs) == 0 {
		return nil
	}
	d := dsu.New(len(recs))
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			gap := recs[j].Window - recs[i].Window
			if gap < 0 {
				gap = -gap
			}
			if int(gap) > maxGap {
				continue
			}
			if recs[i].Sensor == recs[j].Sensor ||
				geo.DistanceMiles(locs[recs[i].Sensor], locs[recs[j].Sensor]) < deltaD {
				d.Union(i, j)
			}
		}
	}
	return componentsToEvents(recs, d)
}

// componentsToEvents groups recs by DSU set. Sets get their event slot in
// order of first record, and each event is filled in ascending record
// order, so over a canonical slice the events come out in canonical order,
// sorted by first record.
func componentsToEvents(recs []cps.Record, d *dsu.DSU) [][]cps.Record {
	slot := make([]int32, len(recs)) // root -> event index, -1 unassigned
	for i := range slot {
		slot[i] = -1
	}
	events := make([][]cps.Record, 0, d.Sets())
	for i, r := range recs {
		root := d.Find(i)
		k := slot[root]
		if k < 0 {
			k = int32(len(events))
			slot[root] = k
			events = append(events, make([]cps.Record, 0, d.SetSize(root)))
		}
		events[k] = append(events[k], r)
	}
	return events
}

// ExtractMicroClusters runs Algorithm 1 end to end: extract the atypical
// events and summarize each into a micro-cluster.
//
//atyplint:deterministic
func ExtractMicroClusters(gen *IDGen, recs []cps.Record, neighbors [][]cps.SensorID, maxGap int) []*Cluster {
	events := ExtractEvents(recs, neighbors, maxGap)
	out := make([]*Cluster, len(events))
	for i, ev := range events {
		out[i] = FromRecords(gen.Next(), ev)
	}
	return out
}
