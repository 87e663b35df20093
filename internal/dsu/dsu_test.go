package dsu

import (
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	d := New(5)
	if d.Len() != 5 || d.Sets() != 5 {
		t.Fatalf("Len=%d Sets=%d", d.Len(), d.Sets())
	}
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Errorf("Find(%d) = %d", i, d.Find(i))
		}
		if d.SetSize(i) != 1 {
			t.Errorf("SetSize(%d) = %d", i, d.SetSize(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	d := New(6)
	if !d.Union(0, 1) {
		t.Error("first union should merge")
	}
	if d.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	d.Union(2, 3)
	d.Union(0, 2)
	if d.Sets() != 3 { // {0,1,2,3}, {4}, {5}
		t.Errorf("Sets = %d, want 3", d.Sets())
	}
	if !d.Same(1, 3) {
		t.Error("1 and 3 should be connected")
	}
	if d.Same(0, 4) {
		t.Error("0 and 4 should be separate")
	}
	if d.SetSize(3) != 4 {
		t.Errorf("SetSize = %d, want 4", d.SetSize(3))
	}
}

// Property: DSU connectivity equals brute-force transitive closure.
func TestMatchesTransitiveClosure(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 12
		d := New(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		for _, e := range edges {
			a, b := int(e%n), int(e/n%n)
			d.Union(a, b)
			adj[a][b], adj[b][a] = true, true
		}
		// Floyd–Warshall closure.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if adj[i][k] && adj[k][j] {
						adj[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d.Same(i, j) != adj[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Sets() + number of successful unions == n.
func TestSetsInvariant(t *testing.T) {
	f := func(edges []uint16) bool {
		const n = 20
		d := New(n)
		merges := 0
		for _, e := range edges {
			if d.Union(int(e%n), int(e/n%n)) {
				merges++
			}
		}
		return d.Sets() == n-merges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 100000
	for i := 0; i < b.N; i++ {
		d := New(n)
		for j := 1; j < n; j++ {
			d.Union(j, j/2)
		}
		if d.Sets() != 1 {
			b.Fatal("expected a single set")
		}
	}
}
