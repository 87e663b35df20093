package cluster

import (
	"math"
	"slices"

	"github.com/cpskit/atypical/internal/cps"
)

// IntegrateOptions configures cluster integration (Algorithm 3).
type IntegrateOptions struct {
	// SimThreshold is δsim: clusters with similarity strictly above it
	// merge. Must be positive — at zero, clusters with no overlap at all
	// would merge and the candidate index would be unsound.
	SimThreshold float64
	// Balance is the g function of Equations 3–4.
	Balance Balance
	// Period folds temporal features onto a time-of-day period (in
	// windows) for similarity, matching the paper's daily window identity
	// (see SimilarityAt). Zero compares absolute windows.
	Period cps.Window
}

// similarity evaluates Sim under the options.
func (o IntegrateOptions) similarity(a, b *Cluster) float64 {
	return SimilarityAt(a, b, o.Balance, o.Period)
}

// Integrate merges every pair of clusters whose similarity exceeds δsim
// until no pair qualifies (Algorithm 3), returning the resulting
// macro-cluster set. The input slice is not modified; returned clusters may
// alias inputs that merged with nothing.
//
// The implementation is the inverted-index variant: only cluster pairs
// sharing at least one sensor or window can have positive similarity (every
// balance function maps (0,0) to 0), so candidates come from per-key posting
// lists instead of the O(n²) all-pairs scan. Results satisfy the same
// fixpoint postcondition as the textbook algorithm: no surviving pair has
// similarity above δsim. Merge order — which the paper notes can influence
// hard-clustering results — is deterministic (ascending input position).
//
//atyplint:deterministic
func Integrate(gen *IDGen, micros []*Cluster, opts IntegrateOptions) []*Cluster {
	return integrateCore(micros, opts, gen)
}

// integrateCore is Integrate's kernel. Every merge draws the next ID from
// gen, intermediate merges of a chain included, so the IDs of the clusters
// it returns match a run that built every intermediate cluster.
func integrateCore(micros []*Cluster, opts IntegrateOptions, gen *IDGen) []*Cluster {
	if opts.SimThreshold <= 0 {
		panic("cluster: IntegrateOptions.SimThreshold must be positive")
	}
	n := len(micros)
	if n <= 1 {
		out := make([]*Cluster, n)
		copy(out, micros)
		return out
	}

	// active holds the inputs, then each chain's merged cluster; alive marks
	// the live ones.
	active := make([]*Cluster, n, n+n/4+1)
	copy(active, micros)
	alive := make([]bool, n, cap(active))
	for i := range alive {
		alive[i] = true
	}
	folded := func(c *Cluster) TemporalFeature { return c.summaryAt(opts.Period).tf }

	// Both skips below are exact only when every input passes
	// Cluster.Valid and, for the rejection memory, when the balance is
	// monotone in floating point (Harmonic is not known to be). The kernel
	// does not check Valid: each path that brings a cluster into the
	// system does, once per cluster, and every input comes from one of them
	// (DESIGN.md §5):
	//
	//   - System.IngestCtx: records must be finite and positive, and each
	//     extracted micro must pass Valid (records may sum to +Inf);
	//   - stream.Processor: Observe rejects such records and emit drops,
	//     and reports, a micro failing Valid, so subscriptions see none;
	//   - System.IngestClusters rejects the batch if any cluster fails;
	//   - storage.ReadClustersExact (forest.Load, LoadForestRecover, shard
	//     HTTP answers) rejects zero or wrapping key deltas, invalid
	//     severities and micro counts outside [1, MaxMicros] as ErrCorrupt;
	//   - merges the kernel builds from valid inputs keep keys sorted and
	//     severities positive; their sums may overflow to +Inf, which the
	//     skips' argument allows.
	sensorsOnly := opts.SimThreshold >= 0.5
	remember := opts.Balance != Harmonic

	// Posting lists: key -> positions of clusters featuring the key, in
	// ascending position order. A merged cluster's keys are a union of its
	// inputs' keys, so the inputs fix both key sets up front.
	bySensor := newPostings(micros, func(c *Cluster) SpatialFeature { return c.SF })
	var byWindow *postings[cps.Window]
	if !sensorsOnly {
		byWindow = newPostings(micros, folded)
	}

	// A chain is the merges that follow one queue pop. Until its first
	// merge the chain is the popped cluster itself; from then on it lives
	// in acc, per-key sums over dense key slots, and becomes a Cluster only
	// when it ends (chainAcc has the exactness argument). Most pops never
	// merge, so acc is allocated at the call's first merge.
	//
	// Examining the chain walks its posting lists — sensor lists, then
	// window lists, each key ascending and each list in ascending position
	// order — and evaluates every live position the first time the walk
	// meets it (stamp[p] == epoch marks it met). The first candidate above
	// δsim merges and the walk restarts on the grown chain, so a
	// snowballing chain stops paying for the lists past its match. Each
	// list read drops dead positions; a list cut short by a merge keeps the
	// rest of them for a later walk. The chain's intermediate clusters
	// never get a position: they were dead entries the moment the next
	// merge made them, so the live order of every list is unchanged.
	//
	// Two kinds of candidate are known not to merge and are stamped without
	// being evaluated (DESIGN.md §5 has the argument):
	//
	//   - at δsim ≥ 0.5, any candidate that shares no sensor: its spatial
	//     term is g(0,0) = 0, so it scores at most 0.5. The walk reads the
	//     sensor lists only, which meet every candidate that can merge in
	//     the order the full walk meets it, and no window lists are built;
	//   - a candidate rejected earlier in the same chain when none of the
	//     clusters the chain absorbed since shares a sensor or folded window
	//     with it: its common entries keep their bits while the chain's
	//     totals only grow, so its similarity cannot have risen.
	stamp := make([]uint32, n, cap(active))
	var epoch uint32
	// rejected[p] records the chain that last rejected position p and the
	// merge count (seq) at the time. touched[p] is the last merge that
	// absorbed a cluster sharing a sensor with p: each merge stamps the live
	// positions in the absorbed cluster's sensor lists. Folded windows are
	// stamped per key in acc and looked up from the candidate's side: a
	// time-of-day bucket is shared by far more clusters than a sensor, so
	// stamping its list would cost more than the lookup.
	var rejected []rejection
	var touched []uint32
	if remember {
		rejected = make([]rejection, n, cap(active))
		touched = make([]uint32, n, cap(active))
	}
	var (
		acc    *chainAcc
		chain  uint32
		seq    uint32
		merged bool // the current chain has merged, so it lives in acc
	)
	// stillRejected reports whether p's last rejection in this chain still
	// holds: no cluster absorbed since shares a key with it. When it does,
	// the rejection is renewed as of now, so later checks start from here.
	// A rejection in this chain being met again means the chain has merged
	// since, so acc exists.
	stillRejected := func(p int32) bool {
		r := &rejected[p]
		if r.chain != chain || touched[p] > r.seq || acc.bucketTouchedSince(active[p], r.seq) {
			return false
		}
		r.seq = seq
		return true
	}
	// match walks one posting list for the chain c, returning the first
	// candidate above δsim or -1.
	match := func(c *Cluster, list *[]int32) int32 {
		l := *list
		w := 0
		for r, p := range l {
			if !alive[p] {
				continue
			}
			l[w] = p
			w++
			if stamp[p] == epoch {
				continue
			}
			stamp[p] = epoch
			if remember && stillRejected(p) {
				continue
			}
			var sim float64
			if merged {
				sim = acc.similarity(active[p], opts.Balance)
			} else {
				sim = opts.similarity(c, active[p])
			}
			if sim > opts.SimThreshold {
				*list = l[:w+copy(l[w:], l[r+1:])]
				return p
			}
			if remember {
				rejected[p] = rejection{chain: chain, seq: seq}
			}
		}
		*list = l[:w]
		return -1
	}

	// Every input is popped once, in position order. A merged cluster can
	// only gain overlap, so only the chain needs re-examination; unchanged
	// non-mergeable pairs stay non-mergeable.
	for pos := range n {
		if !alive[pos] {
			continue
		}
		c := active[pos]
		chain++
		merged = false
		var id ID
		for {
			epoch++
			stamp[pos] = epoch
			cand := int32(-1)
			if merged {
				for _, s := range acc.sensorKeys {
					if cand = match(c, &bySensor.lists[s]); cand >= 0 {
						break
					}
				}
				if cand < 0 && !sensorsOnly {
					for _, b := range acc.bucketKeys {
						if cand = match(c, &byWindow.lists[b]); cand >= 0 {
							break
						}
					}
				}
			} else {
				for _, e := range c.SF {
					if cand = match(c, &bySensor.lists[bySensor.index(e.Key)]); cand >= 0 {
						break
					}
				}
				if cand < 0 && !sensorsOnly {
					for _, e := range folded(c) {
						if cand = match(c, &byWindow.lists[byWindow.index(e.Key)]); cand >= 0 {
							break
						}
					}
				}
			}
			if cand < 0 {
				break
			}
			id = gen.Next()
			seq++
			if !merged {
				if acc == nil {
					acc = newChainAcc(micros, opts.Period, &bySensor.keySlots, byWindow)
				}
				acc.load(c, chain, seq)
				alive[pos] = false
				merged = true
			}
			alive[cand] = false
			x := active[cand]
			acc.absorb(x, seq)
			if remember {
				bySensor.stamp(x.SF, alive, touched, seq)
			}
		}
		if !merged {
			continue
		}
		m := acc.cluster(id)
		newPos := len(active)
		active = append(active, m)
		alive = append(alive, true)
		stamp = append(stamp, 0)
		if remember {
			rejected = append(rejected, rejection{})
			touched = append(touched, 0)
		}
		bySensor.add(m.SF, newPos)
		if byWindow != nil {
			byWindow.add(folded(m), newPos)
		}
	}

	var out []*Cluster
	for i, ok := range alive {
		if ok {
			out = append(out, active[i])
		}
	}
	return out
}

// rejection is integrateCore's memory of one candidate's last rejection.
type rejection struct {
	chain uint32 // the chain that rejected it; 0 means none
	seq   uint32 // merges made before the rejection, over the whole call
}

// chainAcc holds one merge chain as per-key sums, so a merge adds the
// absorbed cluster's entries instead of copying the chain, and scoring a
// candidate walks the candidate's keys only. Every value it holds has the
// bits the same chain would have as a merged Cluster:
//
//   - a sensor or window sum is chain + candidate at every merge, the
//     operands MergeFeature adds;
//   - a folded bucket is re-summed, after each merge touching it, over the
//     chain's windows in that bucket in ascending window order, starting
//     from the first: what FoldTemporal computes for the merged TF. It is
//     never updated by adding the candidate's fold;
//   - both totals are re-summed in ascending key order after each merge,
//     as Feature.Total sums the merged features;
//   - similarity sums the common entries in ascending key order of the
//     candidate's features, the order overlapFractions visits them in, with
//     the chain's sum as the first operand's.
//
// For the rejection memory it also stamps each folded bucket with the last
// merge that absorbed a cluster holding it, and keeps the bucket range of
// each cluster the chain absorbed. Slots belong to the chain whose number
// they carry, so nothing is cleared between chains. It is reused by every
// chain of one integrateCore call.
type chainAcc struct {
	period  cps.Window // max(opts.Period, 0)
	sensors *keySlots[cps.SensorID]
	// buckets numbers the folded window keys; at period 0 these are the
	// windows themselves.
	buckets *keySlots[cps.Window]

	sens  []keySum    // per sensor slot
	bucks []bucketSum // per bucket slot
	// wins holds the chain's windows when the period folds them, each
	// linked into its bucket's ascending list.
	wins []windowSum
	// sensorKeys and bucketKeys are the chain's slots, ascending.
	sensorKeys, bucketKeys []int32
	fresh                  []int32      // scratch: slots new to the chain
	keys                   []cps.Window // scratch: the chain's windows, sorted
	// spans[i] bounds the folded windows of the cluster merge first+i
	// absorbed, lo then hi.
	spans [][2]cps.Window
	first uint32

	chain            uint32
	micros           int
	sev              cps.Severity
	sfTotal, tfTotal cps.Severity
}

// keySum is the chain's sum on one key.
type keySum struct {
	sev   cps.Severity
	chain uint32 // the chain holding the key; sev is stale for any other
}

// bucketSum is keySum for a folded bucket, with the last merge that
// absorbed a cluster holding the bucket and the chain's windows in it
// (indexes into chainAcc.wins; period > 0 only).
type bucketSum struct {
	keySum
	seq        uint32
	head, tail int32
}

// windowSum is one of the chain's windows, linked to the next window of
// its bucket (-1 ends the list).
type windowSum struct {
	key  cps.Window
	sev  cps.Severity
	next int32
}

// newChainAcc sizes the accumulator from the key slots of the posting lists:
// the sensor postings' and, below δsim 0.5, the window postings' (keyed by
// folded window). Without window postings the folded keys are numbered here
// the same way.
func newChainAcc(micros []*Cluster, period cps.Window, sensors *keySlots[cps.SensorID], byWindow *postings[cps.Window]) *chainAcc {
	a := &chainAcc{period: max(period, 0), sensors: sensors}
	if byWindow != nil {
		a.buckets = &byWindow.keySlots
	} else {
		s, _ := newKeySlots(micros, func(c *Cluster) TemporalFeature { return c.summaryAt(a.period).tf })
		a.buckets = &s
	}
	a.sens = make([]keySum, a.sensors.n)
	a.bucks = make([]bucketSum, a.buckets.n)
	return a
}

// load starts chain number chain from the popped cluster c, before its
// first merge, merge number first.
func (a *chainAcc) load(c *Cluster, chain, first uint32) {
	a.chain, a.first = chain, first
	a.spans = a.spans[:0]
	a.micros, a.sev = c.Micros, c.Severity()
	sc := c.summaryAt(a.period)
	a.sfTotal, a.tfTotal = sc.sfTotal, sc.tfTotal
	a.sensorKeys = slices.Grow(a.sensorKeys[:0], len(c.SF))
	for _, e := range c.SF {
		s := a.sensors.index(e.Key)
		a.sens[s].sev, a.sens[s].chain = e.Sev, chain
		a.sensorKeys = append(a.sensorKeys, int32(s))
	}
	a.wins = a.wins[:0]
	if a.period > 0 {
		a.wins = slices.Grow(a.wins, len(c.TF))
		// c.TF ascends, so each window goes to the end of its bucket.
		offs := offsets{period: a.period}
		for _, e := range c.TF {
			b := &a.bucks[a.buckets.index(offs.of(e.Key))]
			w := a.newWindow(e)
			if b.chain != chain {
				b.chain, b.head = chain, w
			} else {
				a.wins[b.tail].next = w
			}
			b.tail = w
		}
	}
	// c's fold is FoldTemporal(c.TF), the sums the bucket lists give.
	a.bucketKeys = slices.Grow(a.bucketKeys[:0], len(sc.tf))
	for _, e := range sc.tf {
		i := a.buckets.index(e.Key)
		a.bucks[i].sev, a.bucks[i].chain = e.Sev, chain
		a.bucketKeys = append(a.bucketKeys, int32(i))
	}
}

// absorb merges x into the chain as merge number seq.
func (a *chainAcc) absorb(x *Cluster, seq uint32) {
	a.micros += x.Micros
	a.sev += x.Severity()
	xf := x.summaryAt(a.period).tf
	span := [2]cps.Window{math.MaxInt64, math.MinInt64} // empty
	if len(xf) > 0 {
		span = [2]cps.Window{xf[0].Key, xf[len(xf)-1].Key}
	}
	a.spans = append(a.spans, span)
	fresh := a.fresh[:0]
	for _, e := range x.SF {
		s := a.sensors.index(e.Key)
		k := &a.sens[s]
		if k.chain == a.chain {
			k.sev += e.Sev
		} else {
			k.sev, k.chain = e.Sev, a.chain
			fresh = append(fresh, int32(s))
		}
	}
	a.sensorKeys = insertSorted(a.sensorKeys, fresh)

	fresh = fresh[:0]
	if a.period > 0 {
		offs := offsets{period: a.period}
		for _, e := range x.TF {
			i := a.buckets.index(offs.of(e.Key))
			if b := &a.bucks[i]; b.chain != a.chain {
				w := a.newWindow(e)
				b.chain, b.head, b.tail = a.chain, w, w
				fresh = append(fresh, int32(i))
			} else {
				a.addWindow(i, e)
			}
		}
		slices.Sort(fresh)
		// x's folded keys are exactly the buckets it touched.
		for _, e := range xf {
			b := &a.bucks[a.buckets.index(e.Key)]
			b.sev = a.bucketTotal(b)
			b.seq = seq
		}
	} else {
		for _, e := range x.TF {
			i := a.buckets.index(e.Key)
			b := &a.bucks[i]
			if b.chain == a.chain {
				b.sev += e.Sev
			} else {
				b.sev, b.chain = e.Sev, a.chain
				fresh = append(fresh, int32(i))
			}
			b.seq = seq
		}
	}
	a.bucketKeys = insertSorted(a.bucketKeys, fresh)
	a.fresh = fresh

	a.sfTotal = 0
	for _, s := range a.sensorKeys {
		a.sfTotal += a.sens[s].sev
	}
	a.tfTotal = 0
	for _, b := range a.bucketKeys {
		a.tfTotal += a.bucks[b].sev
	}
}

// newWindow appends an unlinked window entry and returns its index.
func (a *chainAcc) newWindow(e Entry[cps.Window]) int32 {
	a.wins = append(a.wins, windowSum{key: e.Key, sev: e.Sev, next: -1})
	return int32(len(a.wins) - 1)
}

// addWindow adds e to bucket slot i, which already holds a window of the
// chain: to the window's sum if the chain has it, else as a new window in
// ascending position.
func (a *chainAcc) addWindow(i int, e Entry[cps.Window]) {
	b := &a.bucks[i]
	if e.Key > a.wins[b.tail].key {
		w := a.newWindow(e)
		a.wins[b.tail].next = w
		b.tail = w
		return
	}
	prev, p := int32(-1), b.head
	for a.wins[p].key < e.Key {
		prev, p = p, a.wins[p].next
	}
	if a.wins[p].key == e.Key {
		a.wins[p].sev += e.Sev
		return
	}
	w := a.newWindow(e)
	a.wins[w].next = p
	if prev < 0 {
		b.head = w
	} else {
		a.wins[prev].next = w
	}
}

// bucketTotal sums the bucket's windows in ascending window order.
func (a *chainAcc) bucketTotal(b *bucketSum) cps.Severity {
	t := a.wins[b.head].sev
	for p := a.wins[b.head].next; p >= 0; p = a.wins[p].next {
		t += a.wins[p].sev
	}
	return t
}

// similarity is SimilarityAt(chain, x, g, period).
func (a *chainAcc) similarity(x *Cluster, g Balance) float64 {
	sx := x.summaryAt(a.period)
	var common1, common2 cps.Severity
	for _, e := range x.SF {
		if k := &a.sens[a.sensors.index(e.Key)]; k.chain == a.chain {
			common1 += k.sev
			common2 += e.Sev
		}
	}
	s1, s2 := fractions(common1, common2, a.sfTotal, sx.sfTotal)
	common1, common2 = 0, 0
	for _, e := range sx.tf {
		if b := &a.bucks[a.buckets.index(e.Key)]; b.chain == a.chain {
			common1 += b.sev
			common2 += e.Sev
		}
	}
	t1, t2 := fractions(common1, common2, a.tfTotal, sx.tfTotal)
	return (g.Apply(s1, s2) + g.Apply(t1, t2)) / 2
}

// bucketTouchedSince reports whether a merge after number since, one of
// this chain's, absorbed a cluster sharing a folded window with x. Only x's
// folded windows inside the window ranges of those merges' clusters are
// looked up: usually one micro-cluster's few neighbouring buckets, so a
// large x costs a binary search.
func (a *chainAcc) bucketTouchedSince(x *Cluster, since uint32) bool {
	lo, hi := cps.Window(math.MaxInt64), cps.Window(math.MinInt64)
	for _, s := range a.spans[since+1-a.first:] {
		lo, hi = min(lo, s[0]), max(hi, s[1])
	}
	xf := x.summaryAt(a.period).tf
	i, j := 0, len(xf)
	for i < j {
		if m := int(uint(i+j) >> 1); xf[m].Key < lo {
			i = m + 1
		} else {
			j = m
		}
	}
	for _, e := range xf[i:] {
		if e.Key > hi {
			break
		}
		if a.bucks[a.buckets.index(e.Key)].seq > since {
			return true
		}
	}
	return false
}

// cluster materializes the chain under id, with its similarity summary
// already cached. It consumes the bucket lists, so the chain ends here.
func (a *chainAcc) cluster(id ID) *Cluster {
	sf := make(SpatialFeature, len(a.sensorKeys))
	for i, s := range a.sensorKeys {
		sf[i] = Entry[cps.SensorID]{Key: a.sensors.key(int(s)), Sev: a.sens[s].sev}
	}
	nb := len(a.bucketKeys)
	buf := make(TemporalFeature, nb+len(a.wins))
	fold := buf[:nb:nb]
	for i, b := range a.bucketKeys {
		fold[i] = Entry[cps.Window]{Key: a.buckets.key(int(b)), Sev: a.bucks[b].sev}
	}
	tf := fold
	if a.period > 0 {
		// Each bucket lists its windows ascending, so once the keys are
		// sorted the next window of a key's bucket is that key's entry.
		keys := slices.Grow(a.keys[:0], len(a.wins))
		for _, w := range a.wins {
			keys = append(keys, w.key)
		}
		slices.Sort(keys)
		a.keys = keys
		tf = buf[nb:]
		offs := offsets{period: a.period}
		for i, k := range keys {
			b := &a.bucks[a.buckets.index(offs.of(k))]
			tf[i] = Entry[cps.Window]{Key: k, Sev: a.wins[b.head].sev}
			b.head = a.wins[b.head].next
		}
	}
	c := &Cluster{ID: id, SF: sf, TF: tf, Micros: a.micros, sev: a.sev}
	c.summary.Store(&summary{period: a.period, tf: fold, sfTotal: a.sfTotal, tfTotal: a.tfTotal})
	return c
}

// insertSorted merges the ascending slots fresh into the ascending list.
func insertSorted(list, fresh []int32) []int32 {
	if len(fresh) == 0 {
		return list
	}
	i := len(list) - 1
	list = slices.Grow(list, len(fresh))[:len(list)+len(fresh)]
	for j, k := len(fresh)-1, len(list)-1; j >= 0; k-- {
		if i >= 0 && list[i] > fresh[j] {
			list[k] = list[i]
			i--
		} else {
			list[k] = fresh[j]
			j--
		}
	}
	return list
}

// keySlots numbers feature keys densely: by offset from the smallest key,
// or, when the keys spread far wider than there are entries (sparse or
// hostile IDs from storage or the shard wire), by rank among the distinct
// keys, so memory stays proportional to the input. Either way slot order is
// key order.
type keySlots[K Key] struct {
	lo   K
	n    int         // slot count
	rank map[K]int32 // nil when keys index by offset
	keys []K         // the ranked keys, ascending
}

// newKeySlots numbers the keys of feature(c) over cs and also returns how
// many entries the features hold.
func newKeySlots[K Key](cs []*Cluster, feature func(*Cluster) Feature[K]) (s keySlots[K], total int) {
	var hi K
	for _, c := range cs {
		for _, e := range feature(c) {
			if total == 0 {
				s.lo, hi = e.Key, e.Key
			}
			s.lo, hi = min(s.lo, e.Key), max(hi, e.Key)
			total++
		}
	}
	// The unsigned difference is exact for every key pair of either type.
	if span := uint64(hi) - uint64(s.lo); span < uint64(4*total+1024) {
		s.n = int(span) + 1
		return s, total
	}
	s.rank = make(map[K]int32)
	for _, c := range cs {
		for _, e := range feature(c) {
			if _, ok := s.rank[e.Key]; !ok {
				s.rank[e.Key] = 0
				s.keys = append(s.keys, e.Key)
			}
		}
	}
	slices.Sort(s.keys)
	for i, k := range s.keys {
		s.rank[k] = int32(i)
	}
	s.n = len(s.keys)
	return s, total
}

// index returns the slot of key, which must be a key of the inputs the
// slots were built from.
func (s *keySlots[K]) index(key K) int {
	if s.rank != nil {
		return int(s.rank[key])
	}
	return int(key - s.lo)
}

// key returns the key numbered i.
func (s *keySlots[K]) key(i int) K {
	if s.rank != nil {
		return s.keys[i]
	}
	return s.lo + K(i)
}

// postings holds one position list per key slot.
type postings[K Key] struct {
	keySlots[K]
	lists [][]int32
}

// newPostings indexes the keys of feature(cs[i]) at positions i.
func newPostings[K Key](cs []*Cluster, feature func(*Cluster) Feature[K]) *postings[K] {
	slots, total := newKeySlots(cs, feature)
	p := &postings[K]{keySlots: slots, lists: make([][]int32, slots.n)}
	// Carve the lists from one array sized to the inputs' postings, with a
	// spare slot in each non-empty list for a merged cluster; a list that
	// later outgrows its share reallocates on its own.
	counts := make([]int32, len(p.lists))
	for _, c := range cs {
		for _, e := range feature(c) {
			counts[p.index(e.Key)]++
		}
	}
	for i, n := range counts {
		if n > 0 {
			counts[i] = n + 1
			total++
		}
	}
	backing := make([]int32, total)
	off := 0
	for i, n := range counts {
		p.lists[i] = backing[off : off : off+int(n)]
		off += int(n)
	}
	for pos, c := range cs {
		p.add(feature(c), pos)
	}
	return p
}

// stamp sets touched[q] = seq for every live position q posted under a key
// of f, dropping the dead positions from the lists it reads.
func (p *postings[K]) stamp(f Feature[K], alive []bool, touched []uint32, seq uint32) {
	for _, e := range f {
		i := p.index(e.Key)
		live := p.lists[i][:0]
		for _, q := range p.lists[i] {
			if alive[q] {
				touched[q] = seq
				live = append(live, q)
			}
		}
		p.lists[i] = live
	}
}

func (p *postings[K]) add(f Feature[K], pos int) {
	for _, e := range f {
		i := p.index(e.Key)
		p.lists[i] = append(p.lists[i], int32(pos))
	}
}

// IntegrateNaive is the literal Algorithm 3: repeatedly scan every cluster
// pair and merge the first one whose similarity exceeds δsim, until a full
// pass finds nothing. Quadratic per pass; kept as the correctness oracle and
// the ablation baseline for Integrate.
func IntegrateNaive(gen *IDGen, micros []*Cluster, opts IntegrateOptions) []*Cluster {
	if opts.SimThreshold <= 0 {
		panic("cluster: IntegrateOptions.SimThreshold must be positive")
	}
	set := make([]*Cluster, len(micros))
	copy(set, micros)
	for {
		merged := false
		for i := 0; i < len(set) && !merged; i++ {
			for j := i + 1; j < len(set); j++ {
				if opts.similarity(set[i], set[j]) > opts.SimThreshold {
					c := Merge(gen, set[i], set[j])
					// Remove j first (higher index), then i.
					set = append(set[:j], set[j+1:]...)
					set = append(set[:i], set[i+1:]...)
					set = append(set, c)
					merged = true
					break
				}
			}
		}
		if !merged {
			return set
		}
	}
}
