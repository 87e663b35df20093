// Package dsu implements a disjoint-set union (union-find) structure with
// path compression and union by size. Event extraction (Algorithm 1) uses it
// to compute connected components of the "atypical related" relation — the
// transitive closure of "direct atypical related" (Definitions 1–2).
package dsu

// DSU is a fixed-capacity disjoint-set forest over the integers [0, n).
type DSU struct {
	parent []int32
	size   []int32
	sets   int
}

// New returns a DSU with n singleton sets.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		size:   make([]int32, n),
		sets:   n,
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the canonical representative of x's set.
func (d *DSU) Find(x int) int {
	root := x
	for d.parent[root] != int32(root) {
		root = int(d.parent[root])
	}
	// Path compression.
	for d.parent[x] != int32(root) {
		next := d.parent[x]
		d.parent[x] = int32(root)
		x = int(next)
	}
	return root
}

// Union merges the sets of a and b, returning true when they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	d.size[ra] += d.size[rb]
	d.sets--
	return true
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// SetSize returns the size of x's set.
func (d *DSU) SetSize(x int) int { return int(d.size[d.Find(x)]) }
