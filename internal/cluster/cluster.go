package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"github.com/cpskit/atypical/internal/cps"
)

// ID identifies a cluster. Fresh IDs come from an IDGen; merged clusters get
// new IDs (Algorithm 2, line 1).
type ID uint64

// IDGen hands out unique cluster IDs. Safe for concurrent use.
type IDGen struct {
	next atomic.Uint64
}

// Next returns a fresh ID, starting at 1 so the zero ID stays available as a
// sentinel.
func (g *IDGen) Next() ID { return ID(g.next.Add(1)) }

// AdvancePast moves the generator so every later ID exceeds id. A system
// adopting clusters numbered elsewhere — a forest loaded from disk — calls
// it with their highest ID, so fresh merges never reuse a loaded ID. It
// never moves the generator backwards.
func (g *IDGen) AdvancePast(id ID) {
	for {
		cur := g.next.Load()
		if cur >= uint64(id) || g.next.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// Reserve atomically claims a block of n consecutive IDs and returns the
// first. Parallel construction reserves one block per batch and deals IDs
// out positionally, so the numbering matches what n sequential Next calls
// would have produced regardless of goroutine scheduling.
func (g *IDGen) Reserve(n int) ID {
	if n <= 0 {
		return 0
	}
	return ID(g.next.Add(uint64(n)) - uint64(n) + 1)
}

// Cluster is an atypical cluster C = ⟨ID, SF, TF⟩ (Definition 4). A cluster
// summarizing a single atypical event is a micro-cluster; clusters produced
// by merging are macro-clusters.
type Cluster struct {
	ID ID
	// SF aggregates severity by sensor (how long each sensor was atypical
	// in the event).
	SF SpatialFeature
	// TF aggregates severity by time window (how much atypical mass fell
	// in each window).
	TF TemporalFeature
	// Micros counts the micro-clusters integrated into this cluster (1 for
	// a micro-cluster itself).
	Micros int

	sev cps.Severity // cached Severity(); set at construction, 0 means unknown

	// summary caches what similarity reads at one period: the time-of-day
	// projection of TF and both features' totals. Clusters are immutable
	// after construction; the cache is an atomic pointer so concurrent query
	// goroutines may race on first use — the summary is deterministic, so
	// whichever store wins is correct.
	summary atomic.Pointer[summary]
}

// summary is one memoized similarity input: FoldTemporal(TF, period) and the
// totals of SF and of that fold, each summed by Feature.Total.
type summary struct {
	period  cps.Window
	tf      TemporalFeature
	sfTotal cps.Severity
	tfTotal cps.Severity
}

// New builds a cluster from canonical features, validating the algebraic
// invariant ΣSF = ΣTF that holds for any cluster derived from records.
func New(id ID, sf SpatialFeature, tf TemporalFeature) (*Cluster, error) {
	if !sf.Valid() || !tf.Valid() {
		return nil, fmt.Errorf("cluster %d: invalid feature", id)
	}
	ssf, stf := sf.Total(), tf.Total()
	if !approxEq(float64(ssf), float64(stf)) {
		return nil, fmt.Errorf("cluster %d: feature totals disagree: SF=%v TF=%v", id, ssf, stf)
	}
	return &Cluster{ID: id, SF: sf, TF: tf, Micros: 1, sev: ssf}, nil
}

// FromRecords summarizes an atypical event's records into a micro-cluster
// (Algorithm 1, lines 6–12). The records need not be sorted.
func FromRecords(id ID, recs []cps.Record) *Cluster {
	sfe := make([]Entry[cps.SensorID], 0, len(recs))
	tfe := make([]Entry[cps.Window], 0, len(recs))
	for _, r := range recs {
		sfe = append(sfe, Entry[cps.SensorID]{Key: r.Sensor, Sev: r.Severity})
		tfe = append(tfe, Entry[cps.Window]{Key: r.Window, Sev: r.Severity})
	}
	c := &Cluster{ID: id, SF: NewFeature(sfe), TF: NewFeature(tfe), Micros: 1}
	c.sev = c.SF.Total()
	return c
}

// MaxMicros bounds the micro count of a cluster that enters the system.
// Integration addresses its inputs by int32 position, so it sums fewer than
// 2^31 counts of at most 2^31-1 each, and a merged count cannot overflow.
const MaxMicros = math.MaxInt32

// Valid reports whether the cluster summarizes between 1 and MaxMicros
// micro-clusters and both features pass Feature.Valid, the condition every
// cluster must meet before it is stored or integrated. Every constructor
// sets Micros to 1 and merges sum it, so only a cluster built field by
// field, or a merge of more than MaxMicros micros, can fail the count.
func (c *Cluster) Valid() bool {
	return c.Micros >= 1 && c.Micros <= MaxMicros && c.SF.Valid() && c.TF.Valid()
}

// WithinSensors reports whether every sensor of c lies below n, i.e. inside
// a deployment of n sensors. It reads only the last spatial key, so c must
// already pass Valid (keys ascending).
func (c *Cluster) WithinSensors(n int) bool {
	return len(c.SF) == 0 || int(c.SF[len(c.SF)-1].Key) < n
}

// Severity returns the cluster's total severity Σμ = Σν (Definition 5).
// Every constructor in this package precomputes the cache; clusters built
// field-by-field elsewhere (storage decoding) should call Hydrate once. The
// fallback recomputes without storing so the method stays safe for
// concurrent readers.
func (c *Cluster) Severity() cps.Severity {
	if c.sev == 0 && len(c.SF) > 0 {
		return c.SF.Total()
	}
	return c.sev
}

// Hydrate recomputes the derived severity cache after external field-wise
// construction (e.g. storage decoding). It must be called before the cluster
// is shared across goroutines.
func (c *Cluster) Hydrate() { c.sev = c.SF.Total() }

// Sensors returns the cluster's sensor set in ascending order.
func (c *Cluster) Sensors() []cps.SensorID { return c.SF.Keys() }

// WindowSpan returns the half-open window range covered by TF, or an empty
// range for an empty cluster.
func (c *Cluster) WindowSpan() cps.TimeRange {
	if len(c.TF) == 0 {
		return cps.TimeRange{}
	}
	return cps.TimeRange{From: c.TF[0].Key, To: c.TF[len(c.TF)-1].Key + 1}
}

// PeakSensor returns the sensor with the highest aggregated severity and
// that severity — "on which road segment is the congestion most serious"
// from Example 1. Returns (0, 0) for an empty cluster.
func (c *Cluster) PeakSensor() (cps.SensorID, cps.Severity) {
	var best cps.SensorID
	var bestSev cps.Severity
	for _, e := range c.SF {
		if e.Sev > bestSev {
			best, bestSev = e.Key, e.Sev
		}
	}
	return best, bestSev
}

// PeakWindow returns the window with the highest aggregated severity — "when
// is the congestion most serious".
func (c *Cluster) PeakWindow() (cps.Window, cps.Severity) {
	var best cps.Window
	var bestSev cps.Severity
	for _, e := range c.TF {
		if e.Sev > bestSev {
			best, bestSev = e.Key, e.Sev
		}
	}
	return best, bestSev
}

// Merge integrates two clusters into a fresh macro-cluster (Algorithm 2):
// common sensors and windows accumulate severities, the rest carry over, and
// a new ID is assigned. The inputs are not modified. The operation is
// commutative and associative (paper Property 3); see the property tests.
func Merge(gen *IDGen, a, b *Cluster) *Cluster {
	out := &Cluster{
		ID:     gen.Next(),
		SF:     MergeFeature(a.SF, b.SF),
		TF:     MergeFeature(a.TF, b.TF),
		Micros: a.Micros + b.Micros,
	}
	out.sev = a.Severity() + b.Severity()
	return out
}

// SignificanceBound returns the severity a cluster must exceed to be
// significant for a query over numSensors sensors and a period of
// numWindows windows at relative threshold deltaS (Definition 5:
// severity(C) > δs · length(T) · N).
func SignificanceBound(deltaS float64, numWindows, numSensors int) cps.Severity {
	return cps.Severity(deltaS * float64(numWindows) * float64(numSensors))
}

// Significant reports whether c passes Definition 5 for the given bound.
func (c *Cluster) Significant(bound cps.Severity) bool {
	return c.Severity() > bound
}

// Similarity computes Sim(C1, C2) (Equation 2): the mean of the spatial and
// temporal feature similarities, each the g-balanced pair of common-severity
// fractions (Equations 3–4). The result lies in [0, 1]. Temporal windows are
// compared by absolute index; use SimilarityAt with a period for the paper's
// time-of-day window identity.
func Similarity(a, b *Cluster, g Balance) float64 {
	return SimilarityAt(a, b, g, 0)
}

// SimilarityAt computes Sim(C1, C2) comparing temporal features folded onto
// a period of the given number of windows (e.g. one day). The paper's
// temporal features identify windows by time of day (Fig. 5: "8:05am -
// 8:10am"), which is what lets a corridor's recurring morning congestions
// integrate across days while morning and evening events stay apart
// (Example 5). Period 0 compares absolute windows.
func SimilarityAt(a, b *Cluster, g Balance, period cps.Window) float64 {
	sa, sb := a.summaryAt(period), b.summaryAt(period)
	s1, s2 := overlapFractions(a.SF, b.SF, sa.sfTotal, sb.sfTotal)
	t1, t2 := overlapFractions(sa.tf, sb.tf, sa.tfTotal, sb.tfTotal)
	return (g.Apply(s1, s2) + g.Apply(t1, t2)) / 2
}

// SpatialSimilarity exposes Equation 3 alone.
func SpatialSimilarity(a, b *Cluster, g Balance) float64 {
	p1, p2 := OverlapFractions(a.SF, b.SF)
	return g.Apply(p1, p2)
}

// TemporalSimilarity exposes Equation 4 alone (absolute windows).
func TemporalSimilarity(a, b *Cluster, g Balance) float64 {
	p1, p2 := OverlapFractions(a.TF, b.TF)
	return g.Apply(p1, p2)
}

// TemporalSimilarityAt exposes Equation 4 with time-of-day folding.
func TemporalSimilarityAt(a, b *Cluster, g Balance, period cps.Window) float64 {
	sa, sb := a.summaryAt(period), b.summaryAt(period)
	p1, p2 := overlapFractions(sa.tf, sb.tf, sa.tfTotal, sb.tfTotal)
	return g.Apply(p1, p2)
}

// FoldTemporal projects a temporal feature onto period-of-day buckets,
// summing severities of windows sharing the same offset within the period.
// Period <= 0 returns the input unchanged.
//
// Each bucket sums its windows in input order — for a canonical TF,
// ascending absolute window, the order a stable sort by offset leaves them
// in — so the fold is a pure function of TF: a decoded cluster folds exactly
// like the same cluster built by merging. No sort runs on realistic inputs:
// a feature whose offsets ascend, possibly wrapping once past midnight, is
// copied or rotated, and anything else accumulates into a table indexed by
// offset. Only when the offsets span far more buckets than the feature has
// entries (huge periods) does a stable sort replace the table, so the fold
// never allocates in proportion to the period.
func FoldTemporal(tf TemporalFeature, period cps.Window) TemporalFeature {
	if period <= 0 {
		return tf
	}
	// Classify the offsets in one pass: their range, and every place where
	// they fail to ascend.
	n := len(tf)
	descents, wrap := 0, 0
	lo, hi := period, cps.Window(-1)
	prev := cps.Window(-1)
	offs := offsets{period: period}
	for i, e := range tf {
		k := offs.of(e.Key)
		if k <= prev {
			descents++
			wrap = i
		}
		prev = k
		lo, hi = min(lo, k), max(hi, k)
	}
	switch {
	case descents == 0:
		// Strictly ascending offsets: the feature lies within one period.
		return appendFolded(make(TemporalFeature, 0, n), tf, period)
	case descents == 1 && prev < floorMod(tf[0].Key, period):
		// Two ascending runs that do not overlap once folded — a feature
		// spanning midnight — so the fold is a rotation.
		out := appendFolded(make(TemporalFeature, 0, n), tf[wrap:], period)
		return appendFolded(out, tf[:wrap], period)
	}
	span := int64(hi-lo) + 1
	if span > max(4*int64(n), foldStackSlots) {
		out := appendFolded(make(TemporalFeature, 0, n), tf, period)
		slices.SortStableFunc(out, func(a, b Entry[cps.Window]) int { return cmp.Compare(a.Key, b.Key) })
		return coalesce(out)
	}
	// slot[k-lo] numbers the buckets in offset order: zero before the first
	// window lands, +i when bucket i is allocated but empty, -i once it
	// holds a sum.
	var stack [foldStackSlots]int32
	var slot []int32
	if span <= foldStackSlots {
		slot = stack[:span]
	} else {
		slot = make([]int32, span)
	}
	buckets := int32(0)
	for _, e := range tf {
		if k := offs.of(e.Key) - lo; slot[k] == 0 {
			slot[k] = 1
			buckets++
		}
	}
	// A multi-day feature folds onto far fewer buckets than it has windows.
	out := make(TemporalFeature, 0, buckets)
	buckets = 0
	for i, s := range slot {
		if s != 0 {
			buckets++
			slot[i] = buckets
			out = append(out, Entry[cps.Window]{Key: lo + cps.Window(i)})
		}
	}
	for _, e := range tf {
		k := offs.of(e.Key) - lo
		if s := slot[k]; s > 0 {
			out[s-1].Sev = e.Sev
			slot[k] = -s
		} else {
			out[-s-1].Sev += e.Sev
		}
	}
	return out
}

// appendFolded appends tf's entries with their windows folded onto the
// period, in input order.
func appendFolded(out, tf TemporalFeature, period cps.Window) TemporalFeature {
	offs := offsets{period: period}
	for _, e := range tf {
		out = append(out, Entry[cps.Window]{Key: offs.of(e.Key), Sev: e.Sev})
	}
	return out
}

// offsets computes floorMod(w, period) for a run of windows with one
// division per period the run enters: base is the start of the period the
// last divided window fell in (zero, a period start, before any), and a
// window at most a period past it takes its offset by subtraction. Windows
// in ascending order — a canonical TF — divide once per period crossed;
// anything else divides where it leaves the current period, so every input
// gets exactly floorMod's answer.
type offsets struct {
	period cps.Window
	base   cps.Window
}

func (o *offsets) of(w cps.Window) cps.Window {
	// w >= base makes the unsigned difference the exact distance.
	if d := uint64(w) - uint64(o.base); w >= o.base && d < uint64(o.period) {
		return cps.Window(d)
	}
	k := floorMod(w, o.period)
	// The period start below the most negative windows is not
	// representable; keep the old base there.
	if b := w - k; b <= w {
		o.base = b
	}
	return k
}

// foldStackSlots bounds the offset table FoldTemporal keeps on the stack;
// it covers a day of windows at the default five-minute granularity.
const foldStackSlots = 512

// summaryAt returns the cluster's cached similarity inputs for the period.
// Safe for concurrent use: racing first calls each compute the same
// deterministic summary and the losing store is equivalent to the winning
// one.
func (c *Cluster) summaryAt(period cps.Window) *summary {
	period = max(period, 0)
	if s := c.summary.Load(); s != nil && s.period == period {
		return s
	}
	tf := FoldTemporal(c.TF, period)
	s := &summary{period: period, tf: tf, sfTotal: c.SF.Total(), tfTotal: tf.Total()}
	c.summary.Store(s)
	return s
}

// FoldedKeys returns the distinct time-of-day window offsets of the cluster
// for the period, ascending — the window keys candidate indexes post under.
func (c *Cluster) FoldedKeys(period cps.Window) []cps.Window {
	return c.summaryAt(period).tf.Keys()
}

func floorMod(w, p cps.Window) cps.Window {
	m := w % p
	if m < 0 {
		m += p
	}
	return m
}

// String implements fmt.Stringer with a compact summary.
func (c *Cluster) String() string {
	return fmt.Sprintf("C%d{sensors:%d windows:%d sev:%.0f micros:%d}",
		c.ID, len(c.SF), len(c.TF), float64(c.Severity()), c.Micros)
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d <= 1e-6*scale
}
