// Package index provides the spatial access paths: a uniform grid over
// sensor locations for the δd neighbor lists that Algorithm 1's extraction
// sweep walks (Proposition 1), and an aggregate R-tree for rectangular range
// aggregation.
package index

import (
	"math"
	"sort"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
)

// NeighborIndex answers "which sensors lie within d miles of sensor s"
// queries using a uniform spatial hash whose cell edge is the query radius.
type NeighborIndex struct {
	radiusMiles float64
	cellLat     float64
	cellLon     float64
	origin      geo.Point
	cells       map[cellKey][]cps.SensorID
	locs        []geo.Point // indexed by SensorID
}

type cellKey struct{ r, c int32 }

// NewNeighborIndex indexes the given sensor locations (indexed by SensorID)
// for neighbor queries at exactly radiusMiles.
func NewNeighborIndex(locs []geo.Point, radiusMiles float64) *NeighborIndex {
	if radiusMiles <= 0 {
		panic("index: radius must be positive")
	}
	idx := &NeighborIndex{
		radiusMiles: radiusMiles,
		cellLat:     radiusMiles / geo.MilesPerDegreeLat,
		cells:       make(map[cellKey][]cps.SensorID),
		locs:        locs,
	}
	if len(locs) == 0 {
		idx.cellLon = idx.cellLat
		return idx
	}
	idx.origin = locs[0]
	// Longitude degrees shrink with latitude; size cells at the deployment
	// latitude so a 3×3 block always covers the radius.
	idx.cellLon = radiusMiles / geo.MilesPerDegreeLon(locs[0].Lat)
	for id, p := range locs {
		k := idx.key(p)
		idx.cells[k] = append(idx.cells[k], cps.SensorID(id))
	}
	return idx
}

func (idx *NeighborIndex) key(p geo.Point) cellKey {
	return cellKey{
		r: int32(floorDiv(p.Lat-idx.origin.Lat, idx.cellLat)),
		c: int32(floorDiv(p.Lon-idx.origin.Lon, idx.cellLon)),
	}
}

func floorDiv(x, d float64) float64 {
	return math.Floor(x / d)
}

// Radius returns the query radius the index was built for.
func (idx *NeighborIndex) Radius() float64 { return idx.radiusMiles }

// Neighbors appends to dst every sensor strictly within the radius of s,
// excluding s itself, and returns the extended slice. Results are unordered.
func (idx *NeighborIndex) Neighbors(s cps.SensorID, dst []cps.SensorID) []cps.SensorID {
	p := idx.locs[s]
	k := idx.key(p)
	for dr := int32(-1); dr <= 1; dr++ {
		for dc := int32(-1); dc <= 1; dc++ {
			for _, o := range idx.cells[cellKey{k.r + dr, k.c + dc}] {
				if o == s {
					continue
				}
				if geo.DistanceMiles(p, idx.locs[o]) < idx.radiusMiles {
					dst = append(dst, o)
				}
			}
		}
	}
	return dst
}

// NeighborLists materializes the neighbor list of every sensor, ascending
// within each list. Event extraction over many days reuses the lists.
func (idx *NeighborIndex) NeighborLists() [][]cps.SensorID {
	out := make([][]cps.SensorID, len(idx.locs))
	for id := range idx.locs {
		nb := idx.Neighbors(cps.SensorID(id), nil)
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		out[id] = nb
	}
	return out
}
