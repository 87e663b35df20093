// Package cube implements the bottom-up styled baseline the paper compares
// against and builds on: aggregation of the severity measure over
// pre-defined spatial and temporal hierarchies (Equation 1), the CubeView
// models (OC/MC) of Figs. 15–16, and the red-zone computation that guides
// online clustering (Property 5, Algorithm 4 line 1).
package cube

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/par"
	"github.com/cpskit/atypical/internal/traffic"
)

// SeverityIndex materializes the distributive total severity F(W', T) per
// pre-defined region (Property 4) in a columnar layout: flat parallel
// slices sorted by (region, day) answer day-aligned queries with a single
// binary search plus a linear scan, and a second (region, window) column
// set covers sub-day residuals exactly. No per-record maps survive past a
// single accumulation batch; merges between batches are branch-light
// two-pointer loops over the sorted columns.
//
// The index is safe for concurrent use: lookups (F, FTotal, red zones) may
// run alongside Add/AddDays — writers swap in freshly merged columns under
// the write lock, so readers never observe a partially merged state.
//
// Every mutation (Add, AddDays, Reset) also bumps a monotonic generation
// counter under the same lock. Gen exposes it so derived artifacts — the
// query answer cache in particular — can stamp what they computed against
// a specific severity state and detect that the state has since changed,
// even when no forest version bump accompanied the change (RebuildSeverity,
// the severity half of an in-flight ingest).
type SeverityIndex struct {
	net  *traffic.Network
	spec cps.WindowSpec

	mu   sync.RWMutex
	cols severityColumns
	gen  uint64
}

// severityColumns is one generation of the columnar store. Each cell is a
// (region, key, severity) triple split across three parallel slices; both
// column sets are sorted by (region, key) with unique keys per region.
type severityColumns struct {
	// Day cells: dayKey[i] is the day ordinal from the spec origin.
	dayRegion []geo.RegionID
	dayKey    []int64
	daySev    []cps.Severity
	// Window cells, sparse: winKey[i] is the absolute window.
	winRegion []geo.RegionID
	winKey    []cps.Window
	winSev    []cps.Severity
}

// NewSeverityIndex builds the index over the given atypical records.
func NewSeverityIndex(net *traffic.Network, spec cps.WindowSpec) *SeverityIndex {
	return &SeverityIndex{net: net, spec: spec}
}

// Reset drops every accumulated severity, returning the index to its
// just-constructed state (the generation counter keeps climbing — it marks
// change, not content). Used when the forest is swapped out from under the
// index (see the facade's LoadForest) before a rebuild.
func (x *SeverityIndex) Reset() {
	x.mu.Lock()
	x.cols = severityColumns{}
	x.gen++
	x.mu.Unlock()
}

// Gen returns the index's mutation generation: it increases on every Add,
// AddDays and Reset, and never otherwise. Two equal readings with data
// reads in between guarantee those reads all saw the same severity state.
// Nil-safe (a nil index reports generation 0 forever).
func (x *SeverityIndex) Gen() uint64 {
	if x == nil {
		return 0
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.gen
}

// Add aggregates records into the index. Records for sensors outside the
// region grid are ignored (they belong to no pre-defined region).
//
// Each call rebuilds the live column generation, so its cost is
// O(existing cells + batch), not O(batch): a stream of many small batches
// does quadratic cumulative work. Batch ingest paths should hand whole day
// sets to AddDays, which pre-merges the batch and pays the full-copy merge
// once per call.
//
//atyplint:deterministic
func (x *SeverityIndex) Add(recs []cps.Record) {
	shard := x.accumulate(recs)
	x.mu.Lock()
	x.cols = mergeColumns(x.cols, shard)
	x.gen++
	x.mu.Unlock()
}

// AddDays aggregates several days' record slices, sharding the accumulation
// across up to `workers` goroutines — one shard per slice. The shard columns
// pre-merge pairwise outside the lock (O(batch·log shards)), so the live
// columns are copied exactly once per call however many days arrive — the
// amortization Add's per-call O(existing + batch) cost note points at.
//
// Because a window belongs to exactly one day, distinct shards never touch
// the same (region, day) or (region, window) cell: every cell's severity is
// accumulated in a single shard, in record order, and the pairwise shard
// merge never adds two floats (disjoint cells interleave, they don't
// combine). Building a fresh index from per-day slices therefore produces
// bit-identical floats to feeding the same slices through Add one day at a
// time, for every worker count.
//
//atyplint:deterministic
func (x *SeverityIndex) AddDays(ctx context.Context, days [][]cps.Record, workers int) error {
	shards := make([]severityColumns, len(days))
	if err := par.Do(ctx, len(days), workers, func(i int) error {
		shards[i] = x.accumulate(days[i])
		return nil
	}); err != nil {
		return err
	}
	for len(shards) > 1 {
		half := shards[:(len(shards)+1)/2]
		for i := range half {
			if j := len(shards) - 1 - i; j > i {
				half[i] = mergeColumns(shards[i], shards[j])
			}
		}
		shards = half
	}
	x.mu.Lock()
	if len(shards) == 1 {
		x.cols = mergeColumns(x.cols, shards[0])
	}
	x.gen++
	x.mu.Unlock()
	return nil
}

// cellTriple is one record's contribution to a cell, tagged with its region.
type cellTriple struct {
	region geo.RegionID
	key    int64
	sev    cps.Severity
}

// accumulate sums one record batch into sorted columns; no lock required.
// Cell sums fold in record order: records hitting the same (region, key)
// cell are added in their input order, exactly the sequence a per-cell `+=`
// would use.
//
// Canonical input, whose windows never descend, takes the linear path: a
// stable counting scatter by region. Within each region the windows, and
// with them the days (window/perDay), then still never descend, so the
// scattered triples are already in (region, key) order with every cell's
// records in input order. A batch whose windows do descend somewhere is
// stable-sorted by (region, key) instead, once per column set, which keeps
// the same input order within each cell.
func (x *SeverityIndex) accumulate(recs []cps.Record) severityColumns {
	perDay := int64(x.spec.PerDay())
	counts := make([]int, x.net.Grid.NumRegions())
	triples := make([]cellTriple, 0, len(recs))
	ordered := true
	for i, r := range recs {
		if i > 0 && r.Window < recs[i-1].Window {
			ordered = false
		}
		region := x.net.Sensor(r.Sensor).Region
		if region == geo.NoRegion {
			continue
		}
		counts[region]++
		triples = append(triples, cellTriple{region: region, key: int64(r.Window), sev: r.Severity})
	}
	var c severityColumns
	if ordered {
		byRegion := scatterByRegion(triples, counts)
		c.winRegion, c.winKey, c.winSev = foldCells[cps.Window](byRegion, 1)
		c.dayRegion, c.dayKey, c.daySev = foldCells[int64](byRegion, perDay)
		return c
	}
	days := make([]cellTriple, len(triples))
	for i, t := range triples {
		days[i] = cellTriple{region: t.region, key: t.key / perDay, sev: t.sev}
	}
	slices.SortStableFunc(triples, cmpRegionKey)
	slices.SortStableFunc(days, cmpRegionKey)
	c.winRegion, c.winKey, c.winSev = foldCells[cps.Window](triples, 1)
	c.dayRegion, c.dayKey, c.daySev = foldCells[int64](days, 1)
	return c
}

// scatterByRegion is a stable counting sort of ts by region; counts[r] is
// the number of triples in region r.
func scatterByRegion(ts []cellTriple, counts []int) []cellTriple {
	next := make([]int, len(counts))
	for r := 1; r < len(counts); r++ {
		next[r] = next[r-1] + counts[r-1]
	}
	out := make([]cellTriple, len(ts))
	for _, t := range ts {
		out[next[t.region]] = t
		next[t.region]++
	}
	return out
}

func cmpRegionKey(a, b cellTriple) int {
	if a.region != b.region {
		return cmp.Compare(a.region, b.region)
	}
	return cmp.Compare(a.key, b.key)
}

// foldCells sums runs of equal (region, key/div) in ts, which must be
// ordered by that pair, into one column set.
func foldCells[K ~int64](ts []cellTriple, div int64) ([]geo.RegionID, []K, []cps.Severity) {
	var regions []geo.RegionID
	var keys []K
	var sevs []cps.Severity
	for i := 0; i < len(ts); {
		region, key := ts[i].region, ts[i].key/div
		sum := ts[i].sev
		j := i + 1
		for j < len(ts) && ts[j].region == region && ts[j].key/div == key {
			sum += ts[j].sev
			j++
		}
		regions = append(regions, region)
		keys = append(keys, K(key))
		sevs = append(sevs, sum)
		i = j
	}
	return regions, keys, sevs
}

// mergeColumns folds shard columns b into a, producing a fresh generation:
// a linear two-pointer merge per column set. Shared cells add as old+new —
// the same order a map-backed `+=` merge used — and the inputs are never
// mutated, so concurrent readers of the old generation stay consistent.
func mergeColumns(a, b severityColumns) severityColumns {
	var out severityColumns
	out.dayRegion, out.dayKey, out.daySev = mergeDayCells(
		a.dayRegion, a.dayKey, a.daySev, b.dayRegion, b.dayKey, b.daySev)
	out.winRegion, out.winKey, out.winSev = mergeWindowCells(
		a.winRegion, a.winKey, a.winSev, b.winRegion, b.winKey, b.winSev)
	return out
}

func mergeDayCells(aR []geo.RegionID, aK []int64, aS []cps.Severity,
	bR []geo.RegionID, bK []int64, bS []cps.Severity) ([]geo.RegionID, []int64, []cps.Severity) {
	outR := make([]geo.RegionID, 0, len(aR)+len(bR))
	outK := make([]int64, 0, len(aK)+len(bK))
	outS := make([]cps.Severity, 0, len(aS)+len(bS))
	i, j := 0, 0
	for i < len(aR) && j < len(bR) {
		switch {
		case aR[i] < bR[j] || (aR[i] == bR[j] && aK[i] < bK[j]):
			outR, outK, outS = append(outR, aR[i]), append(outK, aK[i]), append(outS, aS[i])
			i++
		case bR[j] < aR[i] || (aR[i] == bR[j] && bK[j] < aK[i]):
			outR, outK, outS = append(outR, bR[j]), append(outK, bK[j]), append(outS, bS[j])
			j++
		default: // same cell: old value first, shard delta second
			outR, outK, outS = append(outR, aR[i]), append(outK, aK[i]), append(outS, aS[i]+bS[j])
			i++
			j++
		}
	}
	outR, outK, outS = append(outR, aR[i:]...), append(outK, aK[i:]...), append(outS, aS[i:]...)
	outR, outK, outS = append(outR, bR[j:]...), append(outK, bK[j:]...), append(outS, bS[j:]...)
	return outR, outK, outS
}

func mergeWindowCells(aR []geo.RegionID, aK []cps.Window, aS []cps.Severity,
	bR []geo.RegionID, bK []cps.Window, bS []cps.Severity) ([]geo.RegionID, []cps.Window, []cps.Severity) {
	outR := make([]geo.RegionID, 0, len(aR)+len(bR))
	outK := make([]cps.Window, 0, len(aK)+len(bK))
	outS := make([]cps.Severity, 0, len(aS)+len(bS))
	i, j := 0, 0
	for i < len(aR) && j < len(bR) {
		switch {
		case aR[i] < bR[j] || (aR[i] == bR[j] && aK[i] < bK[j]):
			outR, outK, outS = append(outR, aR[i]), append(outK, aK[i]), append(outS, aS[i])
			i++
		case bR[j] < aR[i] || (aR[i] == bR[j] && bK[j] < aK[i]):
			outR, outK, outS = append(outR, bR[j]), append(outK, bK[j]), append(outS, bS[j])
			j++
		default:
			outR, outK, outS = append(outR, aR[i]), append(outK, aK[i]), append(outS, aS[i]+bS[j])
			i++
			j++
		}
	}
	outR, outK, outS = append(outR, aR[i:]...), append(outK, aK[i:]...), append(outS, aS[i:]...)
	outR, outK, outS = append(outR, bR[j:]...), append(outK, bK[j:]...), append(outS, bS[j:]...)
	return outR, outK, outS
}

// dayExtent returns the [lo, hi) day-cell range of one region.
func (c *severityColumns) dayExtent(region geo.RegionID) (int, int) {
	lo := sort.Search(len(c.dayRegion), func(i int) bool { return c.dayRegion[i] >= region })
	hi := lo
	for hi < len(c.dayRegion) && c.dayRegion[hi] == region {
		hi++
	}
	return lo, hi
}

// winExtent returns the [lo, hi) window-cell range of one region.
func (c *severityColumns) winExtent(region geo.RegionID) (int, int) {
	lo := sort.Search(len(c.winRegion), func(i int) bool { return c.winRegion[i] >= region })
	hi := lo
	for hi < len(c.winRegion) && c.winRegion[hi] == region {
		hi++
	}
	return lo, hi
}

// addDays folds the region's day cells in [dayFrom, dayTo) into total, in
// ascending day order. Absent cells contribute exactly zero, matching the
// map-backed index's missing-key lookups (a +0.0 add never changes a sum
// that started from +0.0).
func (c *severityColumns) addDays(total cps.Severity, region geo.RegionID, dayFrom, dayTo int64) cps.Severity {
	lo, hi := c.dayExtent(region)
	keys := c.dayKey[lo:hi]
	sevs := c.daySev[lo:hi]
	p := sort.Search(len(keys), func(i int) bool { return keys[i] >= dayFrom })
	for ; p < len(keys) && keys[p] < dayTo; p++ {
		total += sevs[p]
	}
	return total
}

// addWindows folds the region's window cells in [from, to) into total, in
// ascending window order.
func (c *severityColumns) addWindows(total cps.Severity, region geo.RegionID, from, to cps.Window) cps.Severity {
	lo, hi := c.winExtent(region)
	keys := c.winKey[lo:hi]
	sevs := c.winSev[lo:hi]
	p := sort.Search(len(keys), func(i int) bool { return keys[i] >= from })
	for ; p < len(keys) && keys[p] < to; p++ {
		total += sevs[p]
	}
	return total
}

// F returns the total severity F(W', T) of one region over tr (Equation 1
// restricted to W' = region). Day-aligned spans use the day columns;
// ragged edges fall back to the window columns.
func (x *SeverityIndex) F(region geo.RegionID, tr cps.TimeRange) cps.Severity {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.fLocked(region, tr)
}

// fLocked is F for callers already holding x.mu (either mode); multi-region
// rollups take the lock once instead of per region.
func (x *SeverityIndex) fLocked(region geo.RegionID, tr cps.TimeRange) cps.Severity {
	if tr.Len() == 0 {
		return 0
	}
	perDay := cps.Window(x.spec.PerDay())
	var total cps.Severity

	dayFrom := tr.From / perDay
	if tr.From%perDay != 0 {
		dayFrom++ // first whole day
	}
	dayTo := tr.To / perDay // first day NOT fully covered

	if dayFrom >= dayTo {
		// No whole day inside: window columns only.
		return x.cols.addWindows(total, region, tr.From, tr.To)
	}
	total = x.cols.addDays(total, region, int64(dayFrom), int64(dayTo))
	total = x.cols.addWindows(total, region, tr.From, dayFrom*perDay)
	total = x.cols.addWindows(total, region, dayTo*perDay, tr.To)
	return total
}

// FTotal returns F(W, T) summed over a region set — the distributive rollup
// of Property 4.
func (x *SeverityIndex) FTotal(regions []geo.RegionID, tr cps.TimeRange) cps.Severity {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total cps.Severity
	for _, r := range regions {
		total += x.fLocked(r, tr)
	}
	return total
}

// FScan recomputes F(W, T) directly from records (Equation 1 verbatim):
// the correctness oracle and the "no index" ablation baseline.
func FScan(net *traffic.Network, recs []cps.Record, regions []geo.RegionID, tr cps.TimeRange) cps.Severity {
	inW := make(map[geo.RegionID]bool, len(regions))
	for _, r := range regions {
		inW[r] = true
	}
	var total cps.Severity
	for _, r := range recs {
		if !tr.Contains(r.Window) {
			continue
		}
		if inW[net.Sensor(r.Sensor).Region] {
			total += r.Severity
		}
	}
	return total
}

// RedZones returns the regions among `regions` whose total severity reaches
// the significance bound δs·length(T)·N, where N is the sensor count of the
// whole query region W (Property 5: a region below the bound can host no
// significant cluster). The result is ascending by region id.
func (x *SeverityIndex) RedZones(regions []geo.RegionID, tr cps.TimeRange, deltaS float64, numSensorsInW int) []geo.RegionID {
	bound := cps.Severity(deltaS * float64(tr.Len()) * float64(numSensorsInW))
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []geo.RegionID
	for _, r := range regions {
		if x.fLocked(r, tr) >= bound {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GuidedRedZones applies Property 5 along the pre-defined spatial hierarchy
// (the paper's "zipcode area hierarchy", Example 7): a region is a red zone
// if its own total severity passes the significance bound, or if its
// enclosing district's does. A significant cluster's severity can be spread
// over several sub-bound regions; the district test — every bit as sound
// under Property 5, since a district is just a coarser pre-defined region —
// keeps such a cluster's micro-clusters from being pruned. The result is
// ascending by region id.
func (x *SeverityIndex) GuidedRedZones(regions []geo.RegionID, tr cps.TimeRange, deltaS float64, numSensorsInW int) []geo.RegionID {
	bound := cps.Severity(deltaS * float64(tr.Len()) * float64(numSensorsInW))
	x.mu.RLock()
	defer x.mu.RUnlock()
	byDistrict := make(map[int][]geo.RegionID)
	for _, r := range regions {
		d := x.net.Grid.Region(r).District
		byDistrict[d] = append(byDistrict[d], r)
	}
	var out []geo.RegionID
	for _, members := range byDistrict {
		var districtF cps.Severity
		before := len(out)
		for _, r := range members {
			f := x.fLocked(r, tr)
			districtF += f
			if f >= bound {
				out = append(out, r)
			}
		}
		if len(out) == before && districtF >= bound {
			// No single region reaches the bound but the district does: a
			// significant cluster spread across its regions is possible.
			// Keep the regions carrying at least a fair share of the bound
			// — a cluster reaching the bound inside this district must
			// place that much in one of them.
			share := bound / cps.Severity(len(members))
			for _, r := range members {
				if x.fLocked(r, tr) >= share {
					out = append(out, r)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
