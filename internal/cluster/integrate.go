package cluster

import (
	"math"
	"slices"
	"sync"

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
	out, _ := integrateCore(micros, opts, gen)
	return out
}

// integrateWork counts one integrateCore call's work: merges made,
// candidates met (taken up by the walk for a decision) and similarity
// evaluations. A met candidate settled without a score would be a re-proof
// of an earlier rejection; the frontier walk makes none, so met equals sims.
type integrateWork struct {
	merges, met, sims int
}

// integrateCore is Integrate's kernel. Every merge draws the next ID from
// gen, intermediate merges of a chain included, so the IDs of the clusters
// it returns match a run that built every intermediate cluster.
func integrateCore(micros []*Cluster, opts IntegrateOptions, gen *IDGen) ([]*Cluster, integrateWork) {
	if opts.SimThreshold <= 0 {
		panic("cluster: IntegrateOptions.SimThreshold must be positive")
	}
	var work integrateWork
	n := len(micros)
	if n <= 1 {
		out := make([]*Cluster, n)
		copy(out, micros)
		return out, work
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
	// Cluster.Valid and, for the frontier, when the balance is monotone in
	// floating point (Harmonic is not known to be). The kernel does not
	// check Valid: each path that brings a cluster into the system does,
	// once per cluster, and every input comes from one of them (DESIGN.md
	// §5):
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
	restart := opts.Balance == Harmonic

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
	// The chain merges, each time, the first candidate above δsim in walk
	// order: its sensor lists, then window lists, each key ascending and
	// each list in ascending position order, meeting every live position at
	// the first list that holds it. A candidate's rank is where the walk
	// meets it: (phase, its smallest chain key, position). The chain's
	// intermediate clusters never get a position: they were dead entries
	// the moment the next merge made them, so the live order of every list
	// is unchanged. Each list read drops dead positions.
	//
	// Two kinds of candidate are known not to merge and are never scored
	// (DESIGN.md §5 has the argument):
	//
	//   - at δsim ≥ 0.5, any candidate that shares no sensor: its spatial
	//     term is g(0,0) = 0, so it scores at most 0.5. The walk reads the
	//     sensor lists only, and no window lists are built;
	//   - a candidate the chain rejected, until the chain absorbs a cluster
	//     sharing a sensor or folded window with it (it turns dirty): its
	//     common entries keep their bits while the chain's totals only grow,
	//     so its similarity cannot have risen.
	//
	// So the chain keeps a frontier, the rank at which its walk last
	// merged: every live candidate ranked below it is met. After a merge
	// only dirty candidates and unmet ones can pass, and the first of them
	// in rank order is the one a walk restarted from the first list would
	// merge. Ranks only fall as the chain gains keys, and a candidate whose
	// rank falls holds a key of the absorbed cluster new to the chain, so it
	// is dirty or, unmet, found on that key's list. The dirty candidates
	// ranked below the frontier are scored in rank order; when none passes,
	// the walk resumes at the frontier. Under Harmonic every met candidate
	// counts as dirty after a merge: the walk restarts from the first list.
	ws := walkPool.Get().(*walkState)
	ws.prepare(n, cap(active))
	stamp := ws.stamp // stamp[p] == epoch: p is met
	epoch, chain := ws.epoch, ws.chain
	var (
		acc    *chainAcc
		merged bool   // the current chain has merged, so it lives in acc
		front  uint64 // the walk's frontier rank; 0 is before every rank
	)
	// The dirty set holds the dirty candidates ranked below the frontier and
	// the unmet ones a new key ranks below it, as a min-heap of ranks.
	// rank[p].at is the rank of a met or queued candidate p, kept exact as
	// the chain gains keys: a rank falls only through a key new to the
	// chain, and each merge offers the candidates on the absorbed cluster
	// x's keys that key's rank. A heap entry superseded by a lower rank of
	// its candidate is stale. Dirty candidates are pushed by watchers: a
	// candidate the chain rejects registers once in the lists of its sensor
	// and folded-bucket slots, and absorbing x hands over the watchers of
	// x's keys. An unmet candidate can only rank below the frontier through
	// one of x's new keys, so only those keys' posting lists are read. First
	// rejections wait in pending until the chain's next merge, so pops that
	// never merge register nothing.
	var (
		rank    = ws.rank
		dirty   = ws.dirty[:0]
		pending = ws.pending[:0]
		watch   = &ws.watch
		nsens   = bySensor.n // watch numbers bucket slot b as nsens+b
	)
	// score evaluates candidate p against the chain c.
	score := func(c *Cluster, p int32) bool {
		work.sims++
		var sim float64
		if merged {
			sim = acc.similarity(active[p], opts.Balance)
		} else {
			sim = opts.similarity(c, active[p])
		}
		return sim > opts.SimThreshold
	}
	// scan walks one posting list of the chain c from the first position
	// after `after`, returning the first unmet candidate above δsim or -1.
	scan := func(c *Cluster, phase uint64, slot, after int32, list *[]int32) int32 {
		l := *list
		i := 0
		if after >= 0 {
			i, _ = slices.BinarySearch(l, after+1)
		}
		w := i
		for r := i; r < len(l); r++ {
			p := l[r]
			if !alive[p] {
				continue
			}
			l[w] = p
			w++
			if stamp[p] == epoch {
				continue
			}
			stamp[p] = epoch
			work.met++
			at := walkRank(phase, slot, p)
			if score(c, p) {
				*list = l[:w+copy(l[w:], l[r+1:])]
				front = at
				return p
			}
			if !restart {
				rank[p].at = at
				pending = append(pending, p)
			}
		}
		*list = l[:w]
		return -1
	}
	// walk resumes the chain c's walk at the frontier. Before its first
	// merge the chain is c and the walk starts from the first list.
	walk := func(c *Cluster) int32 {
		if !merged {
			for _, e := range c.SF {
				s := int32(bySensor.index(e.Key))
				if p := scan(c, 0, s, -1, &bySensor.lists[s]); p >= 0 {
					return p
				}
			}
			if !sensorsOnly {
				for _, e := range folded(c) {
					b := int32(byWindow.index(e.Key))
					if p := scan(c, 1, b, -1, &byWindow.lists[b]); p >= 0 {
						return p
					}
				}
			}
			return -1
		}
		phase, slot, after := unrank(front)
		if phase == 0 {
			for _, s := range acc.sensorKeys[firstAtLeast(acc.sensorKeys, slot):] {
				if p := scan(c, 0, s, after, &bySensor.lists[s]); p >= 0 {
					return p
				}
				after = -1
			}
			if sensorsOnly {
				return -1
			}
			slot = 0
		}
		for _, b := range acc.bucketKeys[firstAtLeast(acc.bucketKeys, slot):] {
			if p := scan(c, 1, b, after, &byWindow.lists[b]); p >= 0 {
				return p
			}
			after = -1
		}
		return -1
	}
	// offer tells live candidate p that it ranks at r or below. A met or
	// queued candidate is queued at its lowered rank; an unmet one only
	// when r is below the frontier.
	offer := func(p int32, r uint64) {
		if stamp[p] == epoch || rank[p].queued {
			if r >= rank[p].at {
				if rank[p].queued {
					return
				}
				r = rank[p].at
			}
		} else if r >= front {
			return
		}
		rank[p].at, rank[p].queued = r, true
		dirty = pushRank(dirty, r)
	}
	// takeDirty scores the queued candidates in rank order, returning the
	// first above δsim (the rest stay queued) or -1 with the heap empty. A
	// queued candidate is live: only a taken or walked one merges, and the
	// walk runs on an empty heap.
	takeDirty := func() int32 {
		for len(dirty) > 0 {
			var r uint64
			r, dirty = popRank(dirty)
			p := rankPos(r)
			if !rank[p].queued || rank[p].at != r {
				continue
			}
			work.met++
			rank[p].queued = false
			first := stamp[p] != epoch
			stamp[p] = epoch
			if score(nil, p) {
				return p
			}
			if first {
				pending = append(pending, p)
			}
		}
		return -1
	}
	// offerList offers every live candidate on one posting list its rank
	// there, dropping dead positions.
	offerList := func(phase uint64, slot int32, list *[]int32) {
		live := (*list)[:0]
		for _, p := range *list {
			if alive[p] {
				live = append(live, p)
				offer(p, walkRank(phase, slot, p))
			}
		}
		*list = live
	}
	// dirtied offers what absorbing x made dirty or ranked lower: the
	// watchers of x's keys, and the unmet candidates on x's new keys that
	// can rank below the frontier.
	dirtied := func(x *Cluster) {
		for _, p := range pending {
			if alive[p] {
				for _, e := range active[p].SF {
					watch.add(chain, bySensor.index(e.Key), p)
				}
				for _, e := range folded(active[p]) {
					watch.add(chain, nsens+acc.buckets.index(e.Key), p)
				}
			}
		}
		pending = pending[:0]
		for _, e := range x.SF {
			s := bySensor.index(e.Key)
			for i := watch.first(chain, s); i >= 0; i = watch.ents[i].next {
				if p := watch.ents[i].pos; alive[p] {
					offer(p, walkRank(0, int32(s), p))
				}
			}
		}
		for _, e := range folded(x) {
			b := acc.buckets.index(e.Key)
			for i := watch.first(chain, nsens+b); i >= 0; i = watch.ents[i].next {
				if p := watch.ents[i].pos; alive[p] {
					offer(p, walkRank(1, int32(b), p))
				}
			}
		}
		phase, slot, _ := unrank(front)
		for _, s := range acc.freshSensors {
			if phase == 1 || s < slot {
				offerList(0, s, &bySensor.lists[s])
			}
		}
		if phase == 1 {
			for _, b := range acc.freshBuckets {
				if b < slot {
					offerList(1, b, &byWindow.lists[b])
				}
			}
		}
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
		epoch++
		stamp[pos] = epoch
		merged = false
		front = 0
		pending = pending[:0]
		var id ID
		for {
			cand := int32(-1)
			if len(dirty) > 0 {
				cand = takeDirty()
			}
			if cand < 0 {
				cand = walk(c)
			}
			if cand < 0 {
				break
			}
			id = gen.Next()
			work.merges++
			if !merged {
				if acc == nil {
					acc = newChainAcc(micros, opts.Period, &bySensor.keySlots, byWindow)
					watch.size(nsens + acc.buckets.n)
				}
				acc.load(c, chain)
				alive[pos] = false
				merged = true
			}
			alive[cand] = false
			x := active[cand]
			acc.absorb(x)
			if restart {
				epoch++
				front = 0
			} else {
				dirtied(x)
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
		rank = append(rank, queueRank{})
		bySensor.add(m.SF, newPos)
		if byWindow != nil {
			byWindow.add(folded(m), newPos)
		}
	}

	ws.stamp, ws.rank, ws.dirty, ws.pending = stamp, rank, dirty, pending
	ws.epoch, ws.chain = epoch, chain
	walkPool.Put(ws)

	var out []*Cluster
	for i, ok := range alive {
		if ok {
			out = append(out, active[i])
		}
	}
	return out, work
}

// walkState is integrateCore's per-position walk state and the buffers of
// its dirty set, reused across calls through walkPool. Stamps, chain
// numbers and watch-list tags keep counting up from call to call, so a
// call finds every stale value below its own and clears nothing; every
// queued flag is false again when a chain ends.
type walkState struct {
	stamp   []uint32
	rank    []queueRank
	dirty   []uint64
	pending []int32
	watch   watchers
	epoch   uint32 // the last stamp handed out
	chain   uint32 // the last chain number handed out
}

var walkPool = sync.Pool{New: func() any { return new(walkState) }}

// prepare sizes the per-position state for n inputs, with room for
// capacity positions.
func (ws *walkState) prepare(n, capacity int) {
	// A call hands out at most 2n stamps (one per pop, and under Harmonic
	// one per merge) and n chain numbers; start over before they could wrap.
	if uint64(ws.epoch)+2*uint64(n)+1 > math.MaxUint32 || uint64(ws.chain)+uint64(n)+1 > math.MaxUint32 {
		clear(ws.stamp[:cap(ws.stamp)])
		clear(ws.watch.heads)
		ws.epoch, ws.chain, ws.watch.chain = 0, 0, 0
	}
	if cap(ws.stamp) < n || cap(ws.rank) < n {
		ws.stamp = make([]uint32, n, capacity)
		ws.rank = make([]queueRank, n, capacity)
		return
	}
	ws.stamp, ws.rank = ws.stamp[:n], ws.rank[:n]
}

// queueRank is the walk rank of a met or queued candidate and whether it
// is queued in the dirty set.
type queueRank struct {
	at     uint64
	queued bool
}

// walkRank packs the place where a chain's walk meets the candidate at
// position pos: phase 0 for the sensor lists, 1 for the window lists, then
// the key slot, then the position. Rank 0 is before every candidate.
func walkRank(phase uint64, slot, pos int32) uint64 {
	return phase<<63 | uint64(slot)<<32 | uint64(pos+1)
}

// unrank splits a rank into its phase, slot and position (-1 for rank 0).
func unrank(r uint64) (phase uint64, slot, pos int32) {
	return r >> 63, int32(r >> 32 & math.MaxInt32), rankPos(r)
}

// rankPos is the position of rank r.
func rankPos(r uint64) int32 { return int32(uint32(r)) - 1 }

// pushRank adds r to the min-heap h.
func pushRank(h []uint64, r uint64) []uint64 {
	h = append(h, r)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	return h
}

// popRank removes the least rank from the non-empty min-heap h.
func popRank(h []uint64) (uint64, []uint64) {
	r := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return r, h
}

// firstAtLeast returns the index of the first slot in the ascending keys
// that is at least slot.
func firstAtLeast(keys []int32, slot int32) int {
	i, _ := slices.BinarySearch(keys, slot)
	return i
}

// watchers holds, per key slot, the positions of the candidates a chain
// rejected that hold the key, as linked lists in one array. A slot's list
// belongs to the chain its head carries; entries belong to the chain in
// chain.
type watchers struct {
	heads []watchHead
	ents  []watchEntry
	chain uint32
}

type watchHead struct {
	first int32
	chain uint32
}

type watchEntry struct {
	pos, next int32
}

// size makes room for slots lists.
func (w *watchers) size(slots int) {
	if len(w.heads) < slots {
		w.heads = make([]watchHead, slots)
	}
}

// add registers the candidate at pos in slot's list for chain.
func (w *watchers) add(chain uint32, slot int, pos int32) {
	if w.chain != chain {
		w.chain, w.ents = chain, w.ents[:0]
	}
	h := &w.heads[slot]
	if h.chain != chain {
		h.chain, h.first = chain, -1
	}
	w.ents = append(w.ents, watchEntry{pos: pos, next: h.first})
	h.first = int32(len(w.ents) - 1)
}

// first returns the first entry of slot's list for chain, -1 if none; the
// list continues at ents[i].next.
func (w *watchers) first(chain uint32, slot int) int32 {
	if h := w.heads[slot]; h.chain == chain {
		return h.first
	}
	return -1
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
// Slots belong to the chain whose number they carry, so nothing is cleared
// between chains. It is reused by every chain of one integrateCore call.
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
	// freshSensors and freshBuckets are the slots the last absorb added.
	freshSensors, freshBuckets []int32
	keys                       []cps.Window // scratch: the chain's windows, sorted

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

// bucketSum is keySum for a folded bucket, with the chain's windows in it
// (indexes into chainAcc.wins; period > 0 only).
type bucketSum struct {
	keySum
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
// first merge.
func (a *chainAcc) load(c *Cluster, chain uint32) {
	a.chain = chain
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

// absorb merges x into the chain.
func (a *chainAcc) absorb(x *Cluster) {
	a.micros += x.Micros
	a.sev += x.Severity()
	fresh := a.freshSensors[:0]
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
	a.freshSensors = fresh

	fresh = a.freshBuckets[:0]
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
		for _, e := range x.summaryAt(a.period).tf {
			b := &a.bucks[a.buckets.index(e.Key)]
			b.sev = a.bucketTotal(b)
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
		}
	}
	a.bucketKeys = insertSorted(a.bucketKeys, fresh)
	a.freshBuckets = fresh

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
// or, when the keys spread wider than a few slots per entry (small calls on
// a large deployment, or sparse or hostile IDs from storage or the shard
// wire), by rank among the distinct keys, so memory stays proportional to
// the input. Either way slot order is key order.
type keySlots[K Key] struct {
	lo   K
	n    int // slot count
	keys []K // the distinct keys, ascending, when keys index by rank
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
	if span := uint64(hi) - uint64(s.lo); span < uint64(4*total+64) {
		s.n = int(span) + 1
		return s, total
	}
	s.keys = make([]K, 0, total)
	for _, c := range cs {
		for _, e := range feature(c) {
			s.keys = append(s.keys, e.Key)
		}
	}
	slices.Sort(s.keys)
	s.keys = slices.Compact(s.keys)
	s.n = len(s.keys)
	return s, total
}

// index returns the slot of key, which must be a key of the inputs the
// slots were built from.
func (s *keySlots[K]) index(key K) int {
	if s.keys != nil {
		return s.rankOf(key)
	}
	return int(key - s.lo)
}

// rankOf is index by rank, kept out of line so that index inlines.
//
//go:noinline
func (s *keySlots[K]) rankOf(key K) int {
	i, _ := slices.BinarySearch(s.keys, key)
	return i
}

// key returns the key numbered i.
func (s *keySlots[K]) key(i int) K {
	if s.keys != nil {
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
