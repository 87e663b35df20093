package cluster

import "github.com/cpskit/atypical/internal/cps"

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
	return integrateCore(micros, opts, gen.Next)
}

// integrateCore is Integrate with the merge-ID source abstracted out: the
// serial path draws from the shared IDGen at every merge, while the parallel
// tree reduction merges under the sentinel ID 0 and renumbers survivors in a
// deterministic post-pass (IDs play no role in the algorithm itself).
func integrateCore(micros []*Cluster, opts IntegrateOptions, mkID func() ID) []*Cluster {
	if opts.SimThreshold <= 0 {
		panic("cluster: IntegrateOptions.SimThreshold must be positive")
	}
	n := len(micros)
	if n <= 1 {
		out := make([]*Cluster, n)
		copy(out, micros)
		return out
	}

	// active holds all clusters ever created; alive marks the live ones.
	active := make([]*Cluster, n, 2*n)
	copy(active, micros)
	alive := make([]bool, n, 2*n)
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
	//     HTTP answers) rejects zero or wrapping key deltas and invalid
	//     severities as ErrCorrupt;
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

	// Examining a cluster walks its posting lists — sensor lists, then
	// window lists, each in ascending position order — and evaluates every
	// live position the first time the walk meets it (stamp[p] == epoch
	// marks it met). The first candidate above δsim merges and the walk
	// restarts on the merged cluster, so a snowballing cluster stops paying
	// for the lists past its match. Each list read drops dead positions;
	// a list cut short by a merge keeps the rest of them for a later walk.
	//
	// Two kinds of candidate are known not to merge and are stamped without
	// being evaluated (DESIGN.md §5 has the argument):
	//
	//   - at δsim ≥ 0.5, any candidate that shares no sensor: its spatial
	//     term is g(0,0) = 0, so it scores at most 0.5. The walk reads the
	//     sensor lists only, which meet every candidate that can merge in
	//     the order the full walk meets it, and no window lists are built;
	//   - a candidate rejected earlier in the same chain (the merges that
	//     follow one queue pop) when none of the clusters the chain absorbed
	//     since shares a sensor or folded window with it: its common entries
	//     keep their bits while the chain's totals only grow, so its
	//     similarity cannot have risen.
	stamp := make([]uint32, n, 2*n)
	var epoch uint32
	// rejected[p] records the chain that last rejected position p and how
	// many clusters that chain had absorbed at the time.
	var rejected []rejection
	if remember {
		rejected = make([]rejection, n, 2*n)
	}
	var chain uint32
	var absorbed []int32 // positions the current chain merged with, in order
	// stillRejected reports whether p's last rejection in this chain still
	// holds: no cluster absorbed since shares a key with it. When it does,
	// the rejection is renewed as of now, so later checks start from here.
	stillRejected := func(p int32) bool {
		r := &rejected[p]
		if r.chain != chain {
			return false
		}
		x := active[p]
		for _, y := range absorbed[r.absorbed:] {
			if sharesKey(x.SF, active[y].SF) || sharesKey(folded(x), folded(active[y])) {
				return false
			}
		}
		r.absorbed = int32(len(absorbed))
		return true
	}
	// match walks one posting list for c, returning the first candidate
	// above δsim or -1.
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
			if opts.similarity(c, active[p]) > opts.SimThreshold {
				*list = l[:w+copy(l[w:], l[r+1:])]
				return p
			}
			if remember {
				rejected[p] = rejection{chain: chain, absorbed: int32(len(absorbed))}
			}
		}
		*list = l[:w]
		return -1
	}

	// Work queue: clusters whose merge opportunities need (re)checking.
	// A merged cluster can only gain overlap, so only new clusters need
	// re-examination; unchanged non-mergeable pairs stay non-mergeable.
	queue := make([]int, n)
	for i := range queue {
		queue[i] = i
	}
	for len(queue) > 0 {
		pos := queue[0]
		queue = queue[1:]
		if !alive[pos] {
			continue
		}
		chain++
		absorbed = absorbed[:0]
	repeat:
		c := active[pos]
		epoch++
		stamp[pos] = epoch
		cand := int32(-1)
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
		if cand >= 0 {
			merged := mergeAs(mkID(), c, active[cand])
			alive[pos] = false
			alive[cand] = false
			active = append(active, merged)
			alive = append(alive, true)
			stamp = append(stamp, 0)
			newPos := len(active) - 1
			bySensor.add(merged.SF, newPos)
			if !sensorsOnly {
				byWindow.add(folded(merged), newPos)
			}
			if remember {
				rejected = append(rejected, rejection{})
				absorbed = append(absorbed, cand)
			}
			pos = newPos
			goto repeat
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
	chain    uint32 // the chain that rejected it; 0 means none
	absorbed int32  // clusters that chain had absorbed at the time
}

// sharesKey reports whether two features have a key in common, searching
// each key of the shorter one in the rest of the longer one.
func sharesKey[K Key](a, b Feature[K]) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 || a[len(a)-1].Key < b[0].Key || b[len(b)-1].Key < a[0].Key {
		return false
	}
	j := 0
	for _, e := range a {
		lo, hi := j, len(b)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if b[m].Key < e.Key {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(b) {
			return false
		}
		if b[lo].Key == e.Key {
			return true
		}
		j = lo
	}
	return false
}

// postings holds one position list per feature key. Keys index the lists by
// offset from the smallest key; when the keys spread far wider than there
// are postings (sparse or hostile IDs from storage or the shard wire), they
// are first renumbered densely, so memory stays proportional to the input.
type postings[K Key] struct {
	lo    K
	rank  map[K]int32 // nil when keys index by offset
	lists [][]int32
}

// newPostings indexes the keys of feature(cs[i]) at positions i.
func newPostings[K Key](cs []*Cluster, feature func(*Cluster) Feature[K]) *postings[K] {
	p := &postings[K]{}
	var hi K
	total := 0
	for _, c := range cs {
		for _, e := range feature(c) {
			if total == 0 {
				p.lo, hi = e.Key, e.Key
			}
			p.lo, hi = min(p.lo, e.Key), max(hi, e.Key)
			total++
		}
	}
	// The unsigned difference is exact for every key pair of either type.
	if span := uint64(hi) - uint64(p.lo); span < uint64(4*total+1024) {
		p.lists = make([][]int32, span+1)
	} else {
		p.rank = make(map[K]int32)
		for _, c := range cs {
			for _, e := range feature(c) {
				if _, ok := p.rank[e.Key]; !ok {
					p.rank[e.Key] = int32(len(p.rank))
				}
			}
		}
		p.lists = make([][]int32, len(p.rank))
	}
	// Carve the lists from one array sized to the inputs' postings; a list
	// that later outgrows its share reallocates on its own.
	counts := make([]int, len(p.lists))
	for _, c := range cs {
		for _, e := range feature(c) {
			counts[p.index(e.Key)]++
		}
	}
	backing := make([]int32, total)
	off := 0
	for i, n := range counts {
		p.lists[i] = backing[off : off : off+n]
		off += n
	}
	for pos, c := range cs {
		p.add(feature(c), pos)
	}
	return p
}

// index returns the list slot of key, which must be a key of the inputs the
// postings were built from.
func (p *postings[K]) index(key K) int {
	if p.rank != nil {
		return int(p.rank[key])
	}
	return int(key - p.lo)
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
