package subscribe

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/traffic"
)

// evaluator maintains one standing query's macro-cluster state incrementally.
//
// Naive incremental integration — merge each arriving micro into the running
// macro set — does NOT match the batch answer: Algorithm 3's fixpoint depends
// on merge order, and the batch engine integrates the whole canonically
// ordered input at once, where an early cluster can first merge with a much
// later one. The evaluator gets exact equivalence from a decomposition
// instead:
//
//   - Similarity is (g_s+g_t)/2 with each balance term at most 1, so at
//     δsim ≥ 0.5 a pair of clusters with no common sensor or no common
//     folded window scores at most 0.5 and never merges. cluster.Closure
//     groups the accepted micros so that no two groups share both a sensor
//     and a folded window (below 0.5, so that they share neither), and
//     every macro built inside a group keeps its keys inside the group's.
//     Batch integration therefore never merges across groups: it only
//     stamps and skips such pairs, and the batch run over the full input
//     is the disjoint union of independent runs over each group.
//   - Within one group, integrateCore's behavior depends only on the
//     relative order of that group's inputs: the first-match walk visits
//     posting lists in ascending position, the FIFO queue visits them in
//     input order, and cluster IDs never influence a merge decision.
//   - The closure is unique, whatever order the micros arrive in, because
//     key unions only grow: a conflict between two groups survives every
//     later merge. It can therefore be kept incrementally as micros arrive.
//
// So on every arrival the evaluator adds the micro to the closure and re-runs
// cluster.Integrate over just the affected group's members sorted into
// canonical batch order — (day, arrival sequence), exactly how
// IngestClusters + MicrosInRange would order them. The result is
// bit-identical, float-for-float, to the corresponding slice of the batch
// fixpoint; per-arrival cost is bounded by the group's size, not the
// stream's. Memory is bounded by the micros in the query's scope: a standing
// query over a finite time range T plateaus once the stream passes T.
type evaluator struct {
	net      *traffic.Network
	q        query.Query
	strat    query.Strategy
	inRegion map[geo.RegionID]bool
	// bound is the query-scale significance bound δs·length(T)·N.
	bound cps.Severity
	// dayBound is the day-scale bound Pru prunes against (Example 6).
	dayBound cps.Severity
	opts     cluster.IntegrateOptions
	perDay   cps.Window
	// gen supplies IDs for the evaluator's own merges. Private on purpose:
	// equivalence is over features, and drawing from a shared system gen on
	// every re-integration would burn IDs quadratically.
	gen cluster.IDGen

	// members holds the accepted micros in arrival order; arrival order
	// restricted to one day is the batch emission order for that day, so
	// (day, index) sorts any subset into canonical batch order.
	members []member
	// closure groups the member indices; its groups are the components.
	closure *cluster.Closure
	// comps indexes the live components by closure root, which is the
	// component id minus one.
	comps map[int]*component
}

type member struct {
	c   *cluster.Cluster
	day int
}

// component is one closure group's current state.
type component struct {
	// sig is the current significant set (the component's slice of the batch
	// answer); sigFPs its sorted feature fingerprints for change detection.
	sig    []*cluster.Cluster
	sigFPs []string
	// absorbedPending carries absorbed component ids not yet announced to the
	// subscriber — accumulated across pushes skipped for an unchanged
	// significant set and pushes dropped at a full buffer.
	absorbedPending []uint64
}

// newEvaluator resolves the query against the deployment exactly like the
// batch engine's run preamble (sensorsInRegions → SignificanceBound).
func newEvaluator(cfg Config, q query.Query, strat query.Strategy) *evaluator {
	numSensors := 0
	inRegion := make(map[geo.RegionID]bool, len(q.Regions))
	for _, r := range q.Regions {
		numSensors += len(cfg.Net.SensorsInRegion(r))
		inRegion[r] = true
	}
	return &evaluator{
		net:      cfg.Net,
		q:        q,
		strat:    strat,
		inRegion: inRegion,
		bound:    cluster.SignificanceBound(q.DeltaS, q.Time.Len(), numSensors),
		dayBound: cluster.SignificanceBound(q.DeltaS, cfg.Spec.PerDay(), numSensors),
		opts:     cfg.Options,
		perDay:   cps.Window(cfg.Spec.PerDay()),
		closure:  cluster.NewClosure(cfg.Options),
		comps:    make(map[int]*component),
	}
}

// offer evaluates one emitted micro-cluster, returning the push it triggers
// (Component/Absorbed/Clusters populated; Seq/Ts/Gap are the registry's) and
// the number of micros it re-integrated, zero when c is out of scope.
func (ev *evaluator) offer(c *cluster.Cluster) (p Push, group int, ok bool) {
	// Scope: mirror the batch candidate stage exactly. Day assignment and the
	// half-open day test match IngestClusters + MicrosInRange; the region
	// touch test is the engine's filterTouching; Pru's day-scale prune is
	// per-micro and order-independent, so applying it on arrival commutes
	// with the batch filter.
	if len(c.TF) == 0 {
		return Push{}, 0, false
	}
	day := int(c.TF[0].Key / ev.perDay)
	dayStart := cps.Window(day) * ev.perDay
	if dayStart < ev.q.Time.From || dayStart >= ev.q.Time.To {
		return Push{}, 0, false
	}
	if !query.Touches(ev.net, c, ev.inRegion) {
		return Push{}, 0, false
	}
	if ev.strat == query.Pru && !c.Significant(ev.dayBound) {
		return Push{}, 0, false
	}

	m := len(ev.members)
	ev.members = append(ev.members, member{c: c, day: day})
	root, absorbedRoots := ev.closure.Add(c)

	// The surviving id is the smallest member's; the other components are
	// absorbed, together with anything they still had pending announcement.
	id := uint64(root) + 1
	var absorbed []uint64
	var oldFPs []string
	if root != m {
		old := ev.comps[root]
		absorbed = append(absorbed, old.absorbedPending...)
		oldFPs = append(oldFPs, old.sigFPs...)
	}
	for _, r := range absorbedRoots {
		old := ev.comps[r]
		absorbed = append(absorbed, old.absorbedPending...)
		absorbed = append(absorbed, uint64(r)+1)
		oldFPs = append(oldFPs, old.sigFPs...)
		delete(ev.comps, r)
	}

	// Re-integrate the group in canonical order: bit-identical to its slice
	// of the batch fixpoint (see the type comment). Members come ascending by
	// arrival, so a stable sort by day gives (day, arrival) order.
	idxs := slices.Clone(ev.closure.Members(root))
	slices.SortStableFunc(idxs, func(a, b int) int {
		return cmp.Compare(ev.members[a].day, ev.members[b].day)
	})
	inputs := make([]*cluster.Cluster, len(idxs))
	for i, ix := range idxs {
		inputs[i] = ev.members[ix].c
	}
	macros := cluster.Integrate(&ev.gen, inputs, ev.opts)
	var sig []*cluster.Cluster
	var fps []string
	for _, mc := range macros {
		if mc.Significant(ev.bound) {
			sig = append(sig, mc)
			fps = append(fps, clusterFP(mc))
		}
	}
	sort.Strings(fps)
	comp := &component{sig: sig, sigFPs: fps}
	ev.comps[root] = comp

	// Push only when the observable answer changed: the merged component's
	// significant multiset differs from the union of its parts'. Component
	// bookkeeping (ids merged with nothing significant on either side) stays
	// silent, riding along on the next real push via absorbedPending.
	sort.Strings(oldFPs)
	if slices.Equal(fps, oldFPs) {
		comp.absorbedPending = absorbed
		return Push{}, len(idxs), false
	}
	slices.Sort(absorbed)
	return Push{Component: id, Absorbed: absorbed, Clusters: sig}, len(idxs), true
}

// requeueAbsorbed returns a dropped push's absorbed ids to the component's
// pending set so the next delivered push re-announces them.
func (ev *evaluator) requeueAbsorbed(componentID uint64, absorbed []uint64) {
	if len(absorbed) == 0 {
		return
	}
	if comp, ok := ev.comps[int(componentID-1)]; ok {
		// Sorted so the pending set re-announced by the next push is
		// deterministic no matter how many drops accumulated into it.
		comp.absorbedPending = append(comp.absorbedPending, absorbed...)
		slices.Sort(comp.absorbedPending)
	}
}

// clusterFP fingerprints a cluster's canonical features exactly (float bits,
// not formatted decimals), so equality means bit-identical SF and TF. The
// layout is fixed-width binary: SF's entry count, then each SF entry's key
// and severity bits, then each TF entry's, all as 8-byte words. The count
// fixes where SF ends, so no two clusters share a fingerprint.
func clusterFP(c *cluster.Cluster) string {
	b := make([]byte, 0, 8+16*(len(c.SF)+len(c.TF)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.SF)))
	for _, e := range c.SF {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Key))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(e.Sev)))
	}
	for _, e := range c.TF {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Key))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(e.Sev)))
	}
	return string(b)
}
