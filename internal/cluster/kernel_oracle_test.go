package cluster

// The integration kernel's oracle: the gather-then-evaluate loop that
// integrateCore replaced. It walks every posting list of a cluster before
// evaluating any candidate, and computes similarity from a plain linear
// merge-join over features folded by definition (floorMod on every entry, a
// stable sort, coalescing). Integrate must reproduce it bit for bit — IDs,
// micro counts, feature keys and severity bits, and merge-tree shape.

import (
	"math"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
)

// integrateGatherAll is integrateCore as it was before candidates were
// evaluated during the posting-list walk.
func integrateGatherAll(micros []*Cluster, opts IntegrateOptions, mkID func() ID) []*Cluster {
	if opts.SimThreshold <= 0 {
		panic("cluster: IntegrateOptions.SimThreshold must be positive")
	}
	n := len(micros)
	if n <= 1 {
		out := make([]*Cluster, n)
		copy(out, micros)
		return out
	}

	active := make([]*Cluster, n, 2*n)
	copy(active, micros)
	alive := make([]bool, n, 2*n)
	for i := range alive {
		alive[i] = true
	}
	folded := func(c *Cluster) TemporalFeature { return foldLinear(c.TF, opts.Period) }
	similarity := func(a, b *Cluster) float64 {
		fa, fb := folded(a), folded(b)
		s1, s2 := overlapLinear(a.SF, b.SF, a.SF.Total(), b.SF.Total())
		t1, t2 := overlapLinear(fa, fb, fa.Total(), fb.Total())
		return (opts.Balance.Apply(s1, s2) + opts.Balance.Apply(t1, t2)) / 2
	}

	bySensor := newPostings(micros, func(c *Cluster) SpatialFeature { return c.SF })
	byWindow := newPostings(micros, folded)

	stamp := make([]uint32, n, 2*n)
	var epoch uint32
	var cands []int32
	candidates := func(pos int) []int32 {
		c := active[pos]
		epoch++
		stamp[pos] = epoch
		cands = cands[:0]
		gather := func(list []int32) []int32 {
			live := list[:0]
			for _, p := range list {
				if !alive[p] {
					continue
				}
				live = append(live, p)
				if stamp[p] != epoch {
					stamp[p] = epoch
					cands = append(cands, p)
				}
			}
			return live
		}
		for _, e := range c.SF {
			i := bySensor.index(e.Key)
			bySensor.lists[i] = gather(bySensor.lists[i])
		}
		for _, e := range folded(c) {
			i := byWindow.index(e.Key)
			byWindow.lists[i] = gather(byWindow.lists[i])
		}
		return cands
	}

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
	repeat:
		for _, cand := range candidates(pos) {
			if similarity(active[pos], active[cand]) > opts.SimThreshold {
				merged := mergeAs(mkID(), active[pos], active[cand])
				alive[pos] = false
				alive[cand] = false
				active = append(active, merged)
				alive = append(alive, true)
				stamp = append(stamp, 0)
				newPos := len(active) - 1
				bySensor.add(merged.SF, newPos)
				byWindow.add(folded(merged), newPos)
				pos = newPos
				goto repeat
			}
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

// overlapLinear is overlapFractions as a plain linear merge-join.
func overlapLinear[K Key](a, b Feature[K], totalA, totalB cps.Severity) (p1, p2 float64) {
	var common1, common2 cps.Severity
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			i++
		case b[j].Key < a[i].Key:
			j++
		default:
			common1 += a[i].Sev
			common2 += b[j].Sev
			i++
			j++
		}
	}
	if totalA > 0 {
		p1 = float64(common1 / totalA)
	}
	if totalB > 0 {
		p2 = float64(common2 / totalB)
	}
	return p1, p2
}

// foldLinear is FoldTemporal with every offset computed by floorMod: the
// reference of the fold by definition (stable by offset, then coalesced).
func foldLinear(tf TemporalFeature, period cps.Window) TemporalFeature {
	if period <= 0 {
		return tf
	}
	return foldReference(tf, period)
}

// treeShapeEq reports whether two clusters have bit-identical features, IDs
// and micro counts all the way down their merge trees.
func treeShapeEq(a, b *Cluster) bool {
	if a.ID != b.ID || a.Micros != b.Micros || len(a.Children) != len(b.Children) {
		return false
	}
	if !featuresExactEq(a.SF, b.SF) || !featuresExactEq(a.TF, b.TF) {
		return false
	}
	for i := range a.Children {
		if !treeShapeEq(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// fuzzKernelMicros decodes fuzz input into micro-clusters. Each 4-byte group
// adds one record to the current cluster; a zero first byte closes it. The
// mode byte steers key layout:
//
//   - 0: keys from a small range, so clusters overlap heavily and snowball,
//     with windows across three days' periods;
//   - 1: one giant cluster of size bytes' worth of keys on one side of the
//     join's switch ratio, the rest small;
//   - 2: hostile key spans — sensors at both ends of uint32, windows ±2^40.
func fuzzKernelMicros(data []byte, mode, size uint8, g *IDGen) []*Cluster {
	const far = cps.Window(1) << 40
	var micros []*Cluster
	var recs []cps.Record
	flush := func() {
		if len(recs) > 0 {
			micros = append(micros, FromRecords(g.Next(), recs))
			recs = recs[:0]
		}
	}
	switch mode % 3 {
	case 1:
		// The giant: overlapRatio·small ± a few keys, spread over a day.
		n := int(size)%(4*overlapRatio) + 1
		for k := 0; k < n*4; k++ {
			recs = append(recs, cps.Record{Sensor: cps.SensorID(k % (n + 1)), Window: cps.Window(k * 7 % 600), Severity: cps.Severity(1+k%5) / 10})
		}
		flush()
	}
	for ; len(data) >= 4; data = data[4:] {
		if data[0] == 0 {
			flush()
			continue
		}
		sev := cps.Severity(1+int(data[3])%40) / 10
		r := cps.Record{Severity: sev}
		switch mode % 3 {
		case 2:
			r.Sensor = cps.SensorID(data[1]) << 24
			if data[1]&1 == 1 {
				r.Sensor = math.MaxUint32 - cps.SensorID(data[1]>>1)
			}
			r.Window = cps.Window(int8(data[2])) * (far / 128)
		default:
			r.Sensor = cps.SensorID(data[1] % 24)
			r.Window = cps.Window(data[3]%4)*144 + cps.Window(data[2])
		}
		recs = append(recs, r)
	}
	flush()
	return micros
}

// Integrate equals the gather-then-evaluate oracle bit for bit, merge trees
// included, at absolute windows and at a day's period.
func FuzzIntegrateKernelEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 3, 3, 5, 0, 0, 0, 0, 1, 2, 4, 4, 1, 5, 3, 9}, uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 2, 2, 2, 0, 1, 1, 1, 1, 3, 3, 3}, uint8(1), uint8(overlapRatio-1), uint8(1), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 2, 2, 2, 0, 1, 1, 1, 1, 3, 3, 3}, uint8(1), uint8(overlapRatio+1), uint8(0), uint8(2))
	f.Add([]byte{1, 0, 1, 1, 1, 1, 255, 2, 0, 0, 0, 0, 1, 0, 1, 2, 1, 1, 255, 3}, uint8(2), uint8(0), uint8(1), uint8(1))
	f.Add([]byte{1, 7, 7, 1, 1, 8, 9, 2, 1, 9, 9, 3, 0, 0, 0, 0, 1, 7, 8, 4, 1, 9, 9, 1}, uint8(0), uint8(0), uint8(2), uint8(3))
	// Windows 287 and 288 against window 0 at a 288-window period: they
	// merge only if 288 folds onto 0.
	f.Add([]byte{1, 1, 143, 1, 1, 1, 0, 2, 0, 0, 0, 0, 1, 1, 0, 0}, uint8(0), uint8(0), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mode, size, periodSel, balSel uint8) {
		if len(data) > 4096 {
			return
		}
		var g IDGen
		micros := fuzzKernelMicros(data, mode, size, &g)
		opts := IntegrateOptions{
			SimThreshold: []float64{0.3, 0.5, 0.7}[int(periodSel>>2)%3],
			Balance:      Balances[int(balSel)%len(Balances)],
			Period:       []cps.Window{0, 288}[int(periodSel)%2],
		}
		// Fresh clusters per side, so neither run can read summaries the
		// other memoized.
		var ga, gb IDGen
		ga.next.Store(g.next.Load())
		gb.next.Store(g.next.Load())
		got := integrateCore(cloneMicros(micros), opts, ga.Next)
		want := integrateGatherAll(cloneMicros(micros), opts, gb.Next)
		if len(got) != len(want) {
			t.Fatalf("Integrate = %d clusters, oracle = %d", len(got), len(want))
		}
		for i := range got {
			if !treeShapeEq(got[i], want[i]) {
				t.Fatalf("cluster %d: Integrate %v, oracle %v", i, got[i], want[i])
			}
		}
	})
}

// cloneMicros copies clusters without their memoized summaries.
func cloneMicros(cs []*Cluster) []*Cluster {
	out := make([]*Cluster, len(cs))
	for i, c := range cs {
		out[i] = &Cluster{ID: c.ID, SF: c.SF, TF: c.TF, Micros: c.Micros, sev: c.sev}
	}
	return out
}

// The size-adaptive join sums exactly what the linear merge-join sums, on
// both sides of the switch ratio and with either feature the long one.
func TestOverlapFractionsAdaptiveMatchesLinear(t *testing.T) {
	const short = 7
	for _, long := range []int{short, overlapRatio*short - 1, overlapRatio * short, overlapRatio*short + 1, 100 * short} {
		// Shared keys sit at the long feature's ends and in its middle; the
		// short feature also holds keys the long one lacks.
		var a, b Feature[cps.Window]
		for k := 0; k < long; k++ {
			a = append(a, Entry[cps.Window]{Key: cps.Window(3 * k), Sev: cps.Severity(1+k%7) / 10})
		}
		for k := 0; k < short; k++ {
			key := cps.Window(3 * (k * (long - 1) / (short - 1)))
			if k%3 == 1 {
				key++
			}
			b = append(b, Entry[cps.Window]{Key: key, Sev: cps.Severity(3+k%5) / 10})
		}
		for _, pair := range [][2]Feature[cps.Window]{{a, b}, {b, a}} {
			x, y := pair[0], pair[1]
			p1, p2 := overlapFractions(x, y, x.Total(), y.Total())
			w1, w2 := overlapLinear(x, y, x.Total(), y.Total())
			if math.Float64bits(p1) != math.Float64bits(w1) || math.Float64bits(p2) != math.Float64bits(w2) {
				t.Errorf("lengths %d/%d: adaptive (%v, %v), linear (%v, %v)", len(x), len(y), p1, p2, w1, w2)
			}
			if p1 <= 0 || p2 <= 0 {
				t.Errorf("lengths %d/%d: fixture shares no keys", len(x), len(y))
			}
		}
	}
}
