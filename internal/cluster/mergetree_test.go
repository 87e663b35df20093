package cluster

import (
	"reflect"
	"testing"
)

// TestMergeTreeWidths pins the reported tree shape to the reduction
// IntegrateParallelCtx actually performs.
func TestMergeTreeWidths(t *testing.T) {
	cases := []struct {
		n    int
		want []int
	}{
		{0, nil},
		{1, nil},
		{2, []int{1}},                  // one chunk, no reduction levels
		{integrateChunkSize, []int{1}}, // exactly one chunk
		{integrateChunkSize + 1, []int{2, 1}},
		{5 * integrateChunkSize, []int{5, 3, 2, 1}},
		{8 * integrateChunkSize, []int{8, 4, 2, 1}},
	}
	for _, c := range cases {
		if got := MergeTreeWidths(c.n); !reflect.DeepEqual(got, c.want) {
			t.Errorf("MergeTreeWidths(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestMergeTreeWidthsMatchesReduction replays the reduction loop's own
// arithmetic for a sweep of sizes and checks the helper agrees level by
// level.
func TestMergeTreeWidthsMatchesReduction(t *testing.T) {
	for n := 2; n < 40*integrateChunkSize; n += 97 {
		groups := (n + integrateChunkSize - 1) / integrateChunkSize
		var want []int
		want = append(want, groups)
		for groups > 1 {
			groups = (groups + 1) / 2
			want = append(want, groups)
		}
		if got := MergeTreeWidths(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeTreeWidths(%d) = %v, want %v", n, got, want)
		}
	}
}
