package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
)

// closurePartition names each of the n added clusters' group by its root.
func closurePartition(cl *Closure, n int) []int {
	out := make([]int, n)
	for r := range out {
		for _, m := range cl.Members(r) {
			out[m] = r
		}
	}
	return out
}

// A sensor shared without a window (or the reverse) separates groups at
// δsim ≥ 0.5 and joins them below it; a cluster holding both bridges them.
func TestClosureConflictRule(t *testing.T) {
	mk := func(sensors []cps.SensorID, windows []cps.Window) *Cluster {
		var recs []cps.Record
		for _, s := range sensors {
			for _, w := range windows {
				recs = append(recs, cps.Record{Sensor: s, Window: w, Severity: 1})
			}
		}
		return FromRecords(0, cps.NewRecordSet(recs).Records())
	}
	micros := []*Cluster{
		mk([]cps.SensorID{1}, []cps.Window{10}),    // 0
		mk([]cps.SensorID{1}, []cps.Window{20}),    // 1: sensor of 0, not its window
		mk([]cps.SensorID{2}, []cps.Window{10}),    // 2: window of 0, not its sensor
		mk([]cps.SensorID{2}, []cps.Window{20}),    // 3: conflicts with none of 0-2
		mk([]cps.SensorID{1}, []cps.Window{10}),    // 4: joins 0
		mk([]cps.SensorID{1, 2}, []cps.Window{20}), // 5: joins 1 and 3
	}
	for _, tc := range []struct {
		delta float64
		want  []int
	}{
		{0.5, []int{0, 1, 2, 1, 0, 1}},
		{0.4, []int{0, 0, 0, 0, 0, 0}},
	} {
		cl := NewClosure(IntegrateOptions{SimThreshold: tc.delta})
		for _, c := range micros {
			cl.Add(c)
		}
		if got := closurePartition(cl, len(micros)); !slices.Equal(got, tc.want) {
			t.Errorf("δsim %v: partition %v, want %v", tc.delta, got, tc.want)
		}
	}

	// The last Add at 0.5 reports group 1 surviving and 3 absorbed.
	cl := NewClosure(IntegrateOptions{SimThreshold: 0.5})
	for _, c := range micros[:5] {
		cl.Add(c)
	}
	root, absorbed := cl.Add(micros[5])
	if root != 1 || !slices.Equal(absorbed, []int{3}) {
		t.Errorf("Add = (%d, %v), want (1, [3])", root, absorbed)
	}
	if got := cl.Members(1); !slices.Equal(got, []int{1, 3, 5}) {
		t.Errorf("Members(1) = %v, want [1 3 5]", got)
	}
	if got := cl.Members(3); len(got) != 0 {
		t.Errorf("absorbed group 3 still lists members %v", got)
	}
}

func intersects[K comparable](a, b map[K]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// featureFP fingerprints a cluster's micro count and exact features,
// leaving its ID out.
func featureFP(c *Cluster) string {
	b := binary.LittleEndian.AppendUint64(nil, uint64(c.Micros))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.SF)))
	for _, e := range c.SF {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Key))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(e.Sev)))
	}
	for _, e := range c.TF {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Key))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(e.Sev)))
	}
	return string(b)
}

func sortedFeatureFPs(cs []*Cluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = featureFP(c)
	}
	slices.Sort(out)
	return out
}

// The closure's contract, checked over random micros, every balance, δsim on
// both sides of 0.5 and at it, absolute and daily-folded windows:
//
//   - (a) integrating each group's members in input order gives, together,
//     the macros of integrating the whole input, IDs excepted;
//   - (b) no two final groups conflict under the rule for δsim;
//   - (c) adding the micros in another order gives the same partition.
func FuzzClosureIntegrateEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 3, 3, 5, 0, 0, 0, 0, 1, 2, 4, 4, 1, 5, 3, 9}, uint8(0), uint8(0), uint8(0), uint8(1), int64(1))
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 2, 2, 2, 0, 1, 1, 1, 1, 3, 3, 3}, uint8(1), uint8(3), uint8(5), uint8(0), int64(2))
	f.Add([]byte{1, 0, 1, 1, 1, 1, 255, 2, 0, 0, 0, 0, 1, 0, 1, 2, 1, 1, 255, 3}, uint8(2), uint8(0), uint8(2), uint8(4), int64(3))
	f.Add([]byte{1, 7, 7, 1, 1, 8, 9, 2, 0, 0, 0, 0, 1, 7, 8, 4, 0, 0, 0, 0, 1, 9, 9, 1, 1, 9, 7, 2}, uint8(0), uint8(0), uint8(3), uint8(3), int64(4))
	f.Add([]byte{1, 1, 9, 1, 1, 1, 10, 2, 0, 0, 0, 0, 1, 1, 40, 3, 0, 0, 0, 0, 1, 2, 9, 1, 0, 0, 0, 0, 1, 1, 9, 1, 1, 2, 40, 2}, uint8(0), uint8(0), uint8(6), uint8(2), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, mode, size, optSel, balSel uint8, perm int64) {
		if len(data) > 2048 {
			return
		}
		var g IDGen
		micros := fuzzKernelMicros(data, mode, size, &g)
		opts := IntegrateOptions{
			SimThreshold: []float64{0.3, 0.4, 0.5, 0.7}[int(optSel>>1)%4],
			Balance:      Balances[int(balSel)%len(Balances)],
			Period:       []cps.Window{0, cps.Window(cps.DefaultSpec().PerDay())}[int(optSel)%2],
		}
		cl := NewClosure(opts)
		for i, c := range micros {
			root, absorbed := cl.Add(c)
			if !slices.Contains(cl.Members(root), i) {
				t.Fatalf("Add(%d) = root %d, which does not hold it", i, root)
			}
			for _, r := range absorbed {
				if r == root || len(cl.Members(r)) != 0 || !slices.Contains(cl.Members(root), r) {
					t.Fatalf("Add(%d) absorbed %d, which is still a group", i, r)
				}
			}
		}
		part := closurePartition(cl, len(micros))

		// (a) Group by group, members in input order.
		var groupwise []*Cluster
		for i, r := range part {
			if r != i {
				continue
			}
			var in []*Cluster
			for _, m := range cl.Members(r) {
				in = append(in, micros[m])
			}
			groupwise = append(groupwise, Integrate(&g, in, opts)...)
		}
		whole := Integrate(&g, micros, opts)
		if got, want := sortedFeatureFPs(groupwise), sortedFeatureFPs(whole); !slices.Equal(got, want) {
			t.Fatalf("δsim %v %v period %d: per-group integration gives %d macros, whole input %d, or they differ",
				opts.SimThreshold, opts.Balance, opts.Period, len(got), len(want))
		}

		// (b) Unions computed from the members, folding by definition.
		type union struct {
			sensors map[cps.SensorID]bool
			windows map[cps.Window]bool
		}
		unions := make(map[int]*union)
		for i, c := range micros {
			u := unions[part[i]]
			if u == nil {
				u = &union{make(map[cps.SensorID]bool), make(map[cps.Window]bool)}
				unions[part[i]] = u
			}
			for _, e := range c.SF {
				u.sensors[e.Key] = true
			}
			for _, e := range c.TF {
				w := e.Key
				if opts.Period > 0 {
					w = floorMod(w, opts.Period)
				}
				u.windows[w] = true
			}
		}
		for ra, a := range unions {
			for rb, b := range unions {
				if ra >= rb {
					continue
				}
				s, w := intersects(a.sensors, b.sensors), intersects(a.windows, b.windows)
				if (s && w) || (opts.SimThreshold < 0.5 && (s || w)) {
					t.Fatalf("δsim %v: final groups %d and %d conflict", opts.SimThreshold, ra, rb)
				}
			}
		}

		// (c) Another arrival order, the same partition.
		order := rand.New(rand.NewSource(perm)).Perm(len(micros))
		shuffled := NewClosure(opts)
		for _, m := range order {
			shuffled.Add(micros[m])
		}
		// Name each group by its smallest original index on both sides.
		name := func(groupOf func(int) int) []int {
			first := make(map[int]int)
			out := make([]int, len(micros))
			for i := range micros {
				if _, ok := first[groupOf(i)]; !ok {
					first[groupOf(i)] = i
				}
				out[i] = first[groupOf(i)]
			}
			return out
		}
		pos := make([]int, len(micros))
		for p, m := range order {
			pos[m] = p
		}
		inOrder := name(func(i int) int { return part[i] })
		shuffledPart := closurePartition(shuffled, len(micros))
		reordered := name(func(i int) int { return shuffledPart[pos[i]] })
		if !slices.Equal(inOrder, reordered) {
			t.Fatalf("δsim %v: arrival order changed the partition: %v vs %v", opts.SimThreshold, inOrder, reordered)
		}
	})
}
