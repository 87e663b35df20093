// Package shard partitions the micro-cluster forest across shards and
// answers Q(W, T) by scatter-gather: every shard reports its candidate
// micro-clusters in range (the candidates stage of a query), and the
// coordinator re-establishes the canonical single-forest order before the
// unchanged strategy pipeline runs once at the coordinator. The paper's
// algebra licenses the split — SF/TF features compose algebraically
// (Property 2) and macro-cluster merging is commutative and associative
// (Property 3) — and gathering *candidates* rather than partial macros makes
// the answer byte-identical to the unsharded one rather than merely
// equivalent: integration sees exactly the same inputs in exactly the same
// order.
//
// Two backends serve a shard, both reading one full forest: Local (an
// in-process, home-filtered view over the system's forest) and HTTP (a
// process-separated shard server serving the same view of its own forest
// behind the hardened atypserve serve path, speaking the exact wire codec of
// internal/storage). No shard stores a copy of its slice.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/traffic"
)

// Map deterministically assigns every pre-defined region — and through
// regions, every micro-cluster — to exactly one of n shards. Assignment is
// district-granular: all regions of a district land on the same shard, so
// the spatial locality the grid's coarse districts encode survives the
// split. Two policies cover the two regimes:
//
//   - geo split (n ≤ districts): district d goes to shard d·n/D, carving the
//     district sequence into n contiguous, near-equal runs.
//   - hash fallback (n > districts): district d goes to FNV-1a(d) mod n —
//     contiguous runs can no longer fill every shard, so a hash spreads
//     districts instead.
//
// Either way the map is a pure function of (grid shape, n): every process
// that builds a Map over the same deployment agrees on it without
// coordination, which is what lets HTTP shard servers answer for "their"
// slice while the coordinator routes without a directory service. Query
// correctness never depends on the placement policy — the coordinator
// scatters to every shard and re-sorts the union — so the policy is free to
// chase locality.
type Map struct {
	byRegion []int // region ID → shard
}

// ErrBadConfig reports an invalid sharding parameter (count, index).
var ErrBadConfig = errors.New("shard: invalid configuration")

// NewMap builds the shard map for n shards over the grid's regions.
func NewMap(grid *geo.Grid, n int) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: shard count %d < 1", ErrBadConfig, n)
	}
	d := grid.NumDistricts()
	m := &Map{byRegion: make([]int, grid.NumRegions())}
	for dist := 0; dist < d; dist++ {
		s := dist * n / d
		if n > d {
			h := fnv.New32a()
			var b [4]byte
			b[0], b[1], b[2], b[3] = byte(dist), byte(dist>>8), byte(dist>>16), byte(dist>>24)
			h.Write(b[:])
			s = int(h.Sum32() % uint32(n))
		}
		for _, r := range grid.DistrictRegions(dist) {
			m.byRegion[r] = s
		}
	}
	return m, nil
}

// ShardOf returns the shard owning region r. The out-of-grid sentinel
// NoRegion — sensors outside every region — maps to shard 0, so every
// micro-cluster has exactly one home.
func (m *Map) ShardOf(r geo.RegionID) int {
	if r == geo.NoRegion || int(r) >= len(m.byRegion) {
		return 0
	}
	return m.byRegion[r]
}

// HomeShard returns the shard owning micro-cluster c: the shard of the
// region of c's lowest sensor ID (SF is sorted ascending, so the choice is
// deterministic and independent of construction order). A featureless
// cluster homes on shard 0.
func (m *Map) HomeShard(net *traffic.Network, c *cluster.Cluster) int {
	if len(c.SF) == 0 {
		return 0
	}
	return m.ShardOf(net.Sensor(c.SF[0].Key).Region)
}
