package subscribe

import (
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
//   - Integration only ever merges clusters sharing a sensor key or a folded
//     temporal key (every balance function maps zero overlap to similarity 0,
//     and integrateCore's candidates come from per-key posting lists). Merges
//     therefore respect the connected components of the shared-key graph over
//     the input micros, and the batch run over the full input is the disjoint
//     union of independent runs over each component.
//   - Within one component, integrateCore's behavior depends only on the
//     relative order of that component's inputs: posting lists for the
//     component's keys hold only component positions, the FIFO queue visits
//     them in input order, and cluster IDs never influence a merge decision.
//
// So the evaluator tracks the shared-key components with a union-find as
// micros arrive, and on every arrival re-runs cluster.Integrate over just the
// affected component's members sorted into canonical batch order — (day,
// arrival sequence), exactly how IngestClusters + MicrosInRange would order
// them. The result is bit-identical, float-for-float, to the corresponding
// slice of the batch fixpoint; per-arrival cost is bounded by the component's
// size, not the stream's. Memory is bounded by the micros in the query's
// scope: a standing query over a finite time range T plateaus once the stream
// passes T.
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
	// parent is the union-find over member indices: shared-key components.
	parent []int
	// bySensor/byWindow map each seen key to some member featuring it; an
	// arriving micro unions with those members' components.
	bySensor map[cps.SensorID]int
	byWindow map[cps.Window]int
	// comps indexes the live components by their current union-find root.
	comps map[int]*component
}

type member struct {
	c   *cluster.Cluster
	day int
}

// component is one shared-key connected component's current state.
type component struct {
	// id is the stable component identity: smallest member arrival index + 1.
	// Merges keep the smallest id of the parts.
	id uint64
	// members are the component's member indices, canonically sorted.
	members []int
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
		bySensor: make(map[cps.SensorID]int),
		byWindow: make(map[cps.Window]int),
		comps:    make(map[int]*component),
	}
}

// offer evaluates one emitted micro-cluster, returning the push it triggers
// (Component/Absorbed/Clusters populated; Seq/Ts/Gap are the registry's).
func (ev *evaluator) offer(c *cluster.Cluster) (Push, bool) {
	// Scope: mirror the batch candidate stage exactly. Day assignment and the
	// half-open day test match IngestClusters + MicrosInRange; the region
	// touch test is the engine's filterTouching; Pru's day-scale prune is
	// per-micro and order-independent, so applying it on arrival commutes
	// with the batch filter.
	if len(c.TF) == 0 {
		return Push{}, false
	}
	day := int(c.TF[0].Key / ev.perDay)
	dayStart := cps.Window(day) * ev.perDay
	if dayStart < ev.q.Time.From || dayStart >= ev.q.Time.To {
		return Push{}, false
	}
	if !query.Touches(ev.net, c, ev.inRegion) {
		return Push{}, false
	}
	if ev.strat == query.Pru && !c.Significant(ev.dayBound) {
		return Push{}, false
	}

	m := len(ev.members)
	ev.members = append(ev.members, member{c: c, day: day})
	ev.parent = append(ev.parent, m)

	// Components sharing a key with c, gathered before any union so roots
	// are still distinct.
	old := make(map[int]*component)
	link := func(prev int) {
		r := ev.find(prev)
		if comp, ok := ev.comps[r]; ok {
			old[r] = comp
		}
	}
	for _, e := range c.SF {
		if prev, ok := ev.bySensor[e.Key]; ok {
			link(prev)
		} else {
			ev.bySensor[e.Key] = m
		}
	}
	for _, k := range c.FoldedKeys(ev.opts.Period) {
		if prev, ok := ev.byWindow[k]; ok {
			link(prev)
		} else {
			ev.byWindow[k] = m
		}
	}
	for r := range old {
		ev.union(r, m)
		delete(ev.comps, r)
	}
	root := ev.find(m)

	// The merged component: surviving id is the smallest, the others are
	// absorbed (together with anything still pending announcement).
	idxs := []int{m}
	id := uint64(m) + 1
	var absorbed []uint64
	var oldFPs []string
	for _, comp := range old {
		idxs = append(idxs, comp.members...)
		if comp.id < id {
			id = comp.id
		}
		absorbed = append(absorbed, comp.absorbedPending...)
		oldFPs = append(oldFPs, comp.sigFPs...)
	}
	for _, comp := range old {
		if comp.id != id {
			absorbed = append(absorbed, comp.id)
		}
	}
	sort.Slice(idxs, func(i, j int) bool {
		a, b := idxs[i], idxs[j]
		if ev.members[a].day != ev.members[b].day {
			return ev.members[a].day < ev.members[b].day
		}
		return a < b
	})

	// Re-integrate the component in canonical order: bit-identical to its
	// slice of the batch fixpoint (see the type comment).
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
	comp := &component{id: id, members: idxs, sig: sig, sigFPs: fps}
	ev.comps[root] = comp

	// Push only when the observable answer changed: the merged component's
	// significant multiset differs from the union of its parts'. Component
	// bookkeeping (ids merged with nothing significant on either side) stays
	// silent, riding along on the next real push via absorbedPending.
	sort.Strings(oldFPs)
	if slices.Equal(fps, oldFPs) {
		comp.absorbedPending = absorbed
		return Push{}, false
	}
	slices.Sort(absorbed)
	return Push{Component: id, Absorbed: absorbed, Clusters: sig}, true
}

// requeueAbsorbed returns a dropped push's absorbed ids to the component's
// pending set so the next delivered push re-announces them.
func (ev *evaluator) requeueAbsorbed(componentID uint64, absorbed []uint64) {
	if len(absorbed) == 0 {
		return
	}
	roots := make([]int, 0, len(ev.comps))
	for root := range ev.comps {
		roots = append(roots, root)
	}
	slices.Sort(roots)
	for _, root := range roots {
		if comp := ev.comps[root]; comp.id == componentID {
			// Sorted so the pending set re-announced by the next push is
			// deterministic no matter how many drops accumulated into it.
			comp.absorbedPending = append(comp.absorbedPending, absorbed...)
			slices.Sort(comp.absorbedPending)
			return
		}
	}
}

// find resolves the union-find root with path halving.
func (ev *evaluator) find(x int) int {
	for ev.parent[x] != x {
		ev.parent[x] = ev.parent[ev.parent[x]]
		x = ev.parent[x]
	}
	return x
}

// union attaches a's root under b's.
func (ev *evaluator) union(a, b int) {
	ra, rb := ev.find(a), ev.find(b)
	if ra != rb {
		ev.parent[ra] = rb
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
