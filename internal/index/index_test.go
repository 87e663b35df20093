package index

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
)

func randomLocs(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{
			Lat: 33.7 + rng.Float64()*0.7,
			Lon: -118.7 + rng.Float64(),
		}
	}
	return locs
}

func bruteNeighbors(locs []geo.Point, s cps.SensorID, radius float64) []cps.SensorID {
	var out []cps.SensorID
	for i, p := range locs {
		if cps.SensorID(i) == s {
			continue
		}
		if geo.DistanceMiles(locs[s], p) < radius {
			out = append(out, cps.SensorID(i))
		}
	}
	return out
}

func sortIDs(ids []cps.SensorID) []cps.SensorID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestNeighborIndexMatchesBruteForce(t *testing.T) {
	locs := randomLocs(300, 7)
	for _, radius := range []float64{0.5, 1.5, 6, 24} {
		idx := NewNeighborIndex(locs, radius)
		for s := cps.SensorID(0); s < 50; s++ {
			got := sortIDs(idx.Neighbors(s, nil))
			want := sortIDs(bruteNeighbors(locs, s, radius))
			if len(got) != len(want) {
				t.Fatalf("radius %.1f sensor %d: got %d neighbors, want %d", radius, s, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("radius %.1f sensor %d: neighbor %d = %d, want %d", radius, s, i, got[i], want[i])
				}
			}
		}
	}
}

func TestNeighborIndexEmptyAndSingle(t *testing.T) {
	idx := NewNeighborIndex(nil, 1)
	if idx.Radius() != 1 {
		t.Error("radius lost")
	}
	single := NewNeighborIndex([]geo.Point{{Lat: 34, Lon: -118}}, 1)
	if got := single.Neighbors(0, nil); len(got) != 0 {
		t.Errorf("single sensor has %d neighbors", len(got))
	}
}

func TestNeighborIndexPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewNeighborIndex(nil, 0)
}

func TestNeighborLists(t *testing.T) {
	locs := randomLocs(100, 3)
	idx := NewNeighborIndex(locs, 3)
	lists := idx.NeighborLists()
	if len(lists) != 100 {
		t.Fatalf("lists = %d", len(lists))
	}
	// Symmetry: strict inequality is symmetric.
	for s, nb := range lists {
		for _, o := range nb {
			found := false
			for _, back := range lists[o] {
				if back == cps.SensorID(s) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d->%d", s, o)
			}
		}
	}
}

func TestRTreeSearchMatchesBruteForce(t *testing.T) {
	locs := randomLocs(500, 11)
	tree := NewRTree(locs)
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 40; q++ {
		minP := geo.Point{Lat: 33.7 + rng.Float64()*0.6, Lon: -118.7 + rng.Float64()*0.8}
		box := geo.BBox{Min: minP, Max: geo.Point{Lat: minP.Lat + rng.Float64()*0.3, Lon: minP.Lon + rng.Float64()*0.4}}
		got := sortIDs(tree.Search(box, nil))
		var want []cps.SensorID
		for i, p := range locs {
			if box.Contains(p) {
				want = append(want, cps.SensorID(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: result %d mismatch", q, i)
			}
		}
	}
}

func TestRTreeAggregateMatchesScan(t *testing.T) {
	locs := randomLocs(400, 13)
	tree := NewRTree(locs)
	weights := make([]float64, len(locs))
	rng := rand.New(rand.NewSource(17))
	for i := range weights {
		weights[i] = rng.Float64() * 10
	}
	weight := func(id cps.SensorID) float64 { return weights[id] }
	boxes := []geo.BBox{
		{Min: geo.Point{Lat: 33.7, Lon: -118.7}, Max: geo.Point{Lat: 34.4, Lon: -117.7}}, // everything
		{Min: geo.Point{Lat: 33.9, Lon: -118.4}, Max: geo.Point{Lat: 34.1, Lon: -118.1}},
		{Min: geo.Point{Lat: 0, Lon: 0}, Max: geo.Point{Lat: 1, Lon: 1}}, // nothing
	}
	for _, box := range boxes {
		got := tree.Aggregate(box, weight)
		var want float64
		for i, p := range locs {
			if box.Contains(p) {
				want += weights[i]
			}
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Aggregate(%v) = %v, want %v", box, got, want)
		}
	}
}

func TestRTreeWholeBoxCoversAll(t *testing.T) {
	locs := randomLocs(257, 23) // non-multiple of fanout
	tree := NewRTree(locs)
	box := geo.BBox{Min: geo.Point{Lat: -90, Lon: -180}, Max: geo.Point{Lat: 90, Lon: 180}}
	got := tree.Search(box, nil)
	if len(got) != len(locs) {
		t.Errorf("whole-box search = %d, want %d", len(got), len(locs))
	}
	seen := make(map[cps.SensorID]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if tree.Nodes() == 0 {
		t.Error("tree should report nodes")
	}
}

func TestRTreeEmpty(t *testing.T) {
	tree := NewRTree(nil)
	if got := tree.Search(geo.BBox{Max: geo.Point{Lat: 1, Lon: 1}}, nil); got != nil {
		t.Errorf("empty tree search = %v", got)
	}
	if got := tree.Aggregate(geo.BBox{}, func(cps.SensorID) float64 { return 1 }); got != 0 {
		t.Errorf("empty tree aggregate = %v", got)
	}
}
