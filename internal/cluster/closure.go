package cluster

import (
	"slices"

	"github.com/cpskit/atypical/internal/cps"
)

// Closure partitions clusters, added one at a time, into groups that
// Integrate can run on independently. Each group carries the union of its
// members' sensor keys and the union of their folded window keys
// (FoldedKeys at the options' period). Two groups conflict when they could
// hold a pair of clusters with similarity above δsim:
//
//   - at δsim ≥ 0.5, when both unions intersect. Similarity is (g_s+g_t)/2
//     and each balance term is at most 1, so a pair with no common sensor
//     or no common folded window scores at most 0.5 and never merges;
//   - below 0.5, when either union intersects, since one shared key is
//     enough to score above δsim.
//
// Add keeps the closure: the new cluster starts a group, and every group
// conflicting with the growing group joins it until none does. The result
// is the finest conflict-free partition coarser than the singletons, so it
// does not depend on the order clusters arrive in. Unions only grow, so a
// conflict between two groups survives any further coarsening: any merge
// sequence ends in the same partition.
//
// Every cluster Integrate builds inside a group has its keys inside the
// group's unions, so a pair drawn from two groups never merges, and
// integrateCore only stamps and skips it. Integrating one group's members
// in their input order therefore gives exactly that group's slice of
// Integrate over the whole input, float for float. The bound holds in
// floating point as well: a partial sum of positive severities never
// exceeds the full sum, so each overlap fraction, and each balance of two
// of them, is at most 1.
//
// Groups are named by their smallest member, numbered by Add order from 0.
// A Closure is not safe for concurrent use.
type Closure struct {
	period cps.Window
	// both selects the conflict rule: both unions intersect (δsim ≥ 0.5)
	// rather than either.
	both bool

	sensors closureKeys[cps.SensorID]
	windows closureKeys[cps.Window]

	// parent is the union-find over member numbers; groups[r] holds the
	// group rooted at r.
	parent []int32
	groups []closureGroup
	// hit[r] records which of the growing group's unions group r has been
	// seen to intersect, valid while hitEpoch[r] is the current Add's epoch.
	hit      []uint8
	hitEpoch []uint32
	epoch    uint32
	// mark deduplicates the roots of one posting-list scan.
	mark  []uint32
	scans uint32
}

// closureGroup is one group's members and key unions.
type closureGroup struct {
	members []int // ascending
	// sensors and windows are the key slots of the group's unions.
	sensors, windows []int32
}

// closureKeys interns one kind of key into dense slots.
type closureKeys[K Key] struct {
	slot map[K]int32
	// posts[s] lists members featuring the slot's key; entries may name
	// members since absorbed, and resolve through the union-find.
	posts [][]int32
	// joined[s] is the epoch in which the slot's key last joined the
	// growing group's union.
	joined []uint32
}

const (
	hitSensor uint8 = 1 << iota
	hitWindow
)

// NewClosure returns an empty closure for the integration options: the
// folding period and the conflict rule both follow opts.
func NewClosure(opts IntegrateOptions) *Closure {
	return &Closure{
		period:  opts.Period,
		both:    opts.SimThreshold >= 0.5,
		sensors: closureKeys[cps.SensorID]{slot: make(map[cps.SensorID]int32)},
		windows: closureKeys[cps.Window]{slot: make(map[cps.Window]int32)},
	}
}

// Add inserts c as the next member number, counting from 0, and restores
// the closure. It returns the root of the group now holding c and the roots
// of the earlier groups that joined it and no longer exist. When c joins
// earlier groups, the one with the smallest root keeps its name and is not
// listed as absorbed.
func (cl *Closure) Add(c *Cluster) (root int, absorbed []int) {
	i := len(cl.parent)
	cl.parent = append(cl.parent, int32(i))
	cl.groups = append(cl.groups, closureGroup{})
	cl.hit = append(cl.hit, 0)
	cl.hitEpoch = append(cl.hitEpoch, 0)
	cl.mark = append(cl.mark, 0)
	cl.epoch++

	g := closureGroup{members: []int{i}}
	for _, e := range c.SF {
		g.sensors = cl.sensors.join(g.sensors, cl.sensors.intern(e.Key), cl.epoch)
	}
	for _, k := range c.FoldedKeys(cl.period) {
		g.windows = cl.windows.join(g.windows, cl.windows.intern(k), cl.epoch)
	}
	ownSensors, ownWindows := len(g.sensors), len(g.windows)

	// Every key that joins the group's unions is scanned once: the groups
	// posted under it are the groups that share it. A group conflicts once
	// its hits satisfy the rule, and then brings its own keys in.
	absorb := func(r int32) {
		h := cl.groups[r]
		cl.groups[r] = closureGroup{}
		cl.parent[r] = int32(i)
		g.members = append(g.members, h.members...)
		for _, s := range h.sensors {
			g.sensors = cl.sensors.join(g.sensors, s, cl.epoch)
		}
		for _, s := range h.windows {
			g.windows = cl.windows.join(g.windows, s, cl.epoch)
		}
		absorbed = append(absorbed, int(r))
	}
	scan := func(list *[]int32, bit uint8) {
		cl.scans++
		l := *list
		w := 0
		for _, e := range l {
			r := cl.find(e)
			if cl.mark[r] == cl.scans {
				continue
			}
			cl.mark[r] = cl.scans
			l[w] = r
			w++
			if r == int32(i) {
				continue
			}
			if cl.hitEpoch[r] != cl.epoch {
				cl.hitEpoch[r] = cl.epoch
				cl.hit[r] = 0
			}
			cl.hit[r] |= bit
			if !cl.both || cl.hit[r] == hitSensor|hitWindow {
				absorb(r)
			}
		}
		*list = l[:w]
	}
	for s, w := 0, 0; s < len(g.sensors) || w < len(g.windows); {
		if s < len(g.sensors) {
			scan(&cl.sensors.posts[g.sensors[s]], hitSensor)
			s++
		} else {
			scan(&cl.windows.posts[g.windows[w]], hitWindow)
			w++
		}
	}
	for _, s := range g.sensors[:ownSensors] {
		cl.sensors.posts[s] = append(cl.sensors.posts[s], int32(i))
	}
	for _, s := range g.windows[:ownWindows] {
		cl.windows.posts[s] = append(cl.windows.posts[s], int32(i))
	}

	// Absorbed roots all precede i, so i stays the root only of a group
	// that absorbed nothing.
	root = i
	if len(absorbed) > 0 {
		root = slices.Min(absorbed)
		cl.parent[i] = int32(root)
		cl.parent[root] = int32(root)
		absorbed = slices.DeleteFunc(absorbed, func(r int) bool { return r == root })
		slices.Sort(g.members)
	}
	cl.groups[root] = g
	return root, absorbed
}

// Members returns the members of the group rooted at root, ascending. The
// slice is shared: do not modify it. A number that is not a root has none.
func (cl *Closure) Members(root int) []int { return cl.groups[root].members }

// find resolves the union-find root with path halving.
func (cl *Closure) find(x int32) int32 {
	for cl.parent[x] != x {
		cl.parent[x] = cl.parent[cl.parent[x]]
		x = cl.parent[x]
	}
	return x
}

// intern returns key's slot, allocating one on first sight.
func (k *closureKeys[K]) intern(key K) int32 {
	s, ok := k.slot[key]
	if !ok {
		s = int32(len(k.posts))
		k.slot[key] = s
		k.posts = append(k.posts, nil)
		k.joined = append(k.joined, 0)
	}
	return s
}

// join appends slot to the union keys unless it joined in this epoch.
func (k *closureKeys[K]) join(keys []int32, slot int32, epoch uint32) []int32 {
	if k.joined[slot] == epoch {
		return keys
	}
	k.joined[slot] = epoch
	return append(keys, slot)
}
