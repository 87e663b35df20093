package cluster

// The integration kernel's oracle: the gather-then-evaluate loop that
// integrateCore replaced. It walks every posting list of a cluster before
// evaluating any candidate, builds every merged cluster with Merge, and
// computes similarity from a plain linear merge-join over features folded by
// definition (floorMod on every entry, a stable sort, coalescing). Integrate
// must reproduce it bit for bit — IDs, micro counts, feature keys and
// severity bits — and every summary it caches on a merged cluster must be
// the one summaryAt would compute.

import (
	"math"
	"slices"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
)

// integrateGatherAll is integrateCore as it was before candidates were
// evaluated during the posting-list walk.
func integrateGatherAll(micros []*Cluster, opts IntegrateOptions, gen *IDGen) []*Cluster {
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
				merged := Merge(gen, active[pos], active[cand])
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

// fuzzKernelMicros decodes fuzz input into micro-clusters. Each 4-byte group
// adds one record to the current cluster; a zero first byte closes it. The
// mode byte steers key layout:
//
//   - 0: keys from a small range, so clusters overlap heavily and snowball,
//     with windows across three days' periods;
//   - 1: one giant cluster of size bytes' worth of keys on one side of the
//     join's switch ratio, the rest small;
//   - 2: hostile key spans — sensors at both ends of uint32, windows ±2^40;
//   - 3: dense keys — eight sensors, eight windows a day over four days —
//     and a first byte divisible by 4 also closes the cluster after its
//     record, so small clusters often share a window and no sensor, or the
//     reverse, and a chain's rejections are often revisited;
//   - 4: mode 3's keys with extreme valid severities — subnormal and
//     MaxFloat64, whose sums overflow to +Inf in merges — mixed with
//     ordinary ones;
//   - 5: long multi-day chains — four sensors, windows over 32 days in 8
//     buckets of a 288-window period, severities across six orders of
//     magnitude so that reassociating a sum changes its bits, and small
//     clusters as in mode 3. At odd size the days lie 2^24 periods apart,
//     so windows span far more than the entries (ranked window slots at
//     period 0).
//
// A micro failing Valid (MaxFloat64 records summing to +Inf in one entry)
// is dropped, as ingest rejects it: kernel inputs always pass Valid.
// TestFeatureValid covers the severities and key orders that fail.
func fuzzKernelMicros(data []byte, mode, size uint8, g *IDGen) []*Cluster {
	const far = cps.Window(1) << 40
	var micros []*Cluster
	var recs []cps.Record
	flush := func() {
		if len(recs) > 0 {
			if c := FromRecords(g.Next(), recs); c.Valid() {
				micros = append(micros, c)
			}
			recs = recs[:0]
		}
	}
	switch mode % 6 {
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
		switch mode % 6 {
		case 5:
			day := cps.Window(data[2] % 32)
			if size%2 == 1 {
				day <<= 24
			}
			r.Sensor = cps.SensorID(data[1] % 4)
			r.Window = day*288 + 100 + cps.Window(data[3]%8)
			r.Severity = cps.Severity(1+int(data[3]>>3)%9) * cps.Severity(math.Pow10(int(data[1]>>2)%6-3))
		case 4:
			r.Severity = extremeSeverity(data[3], sev)
			fallthrough
		case 3:
			r.Sensor = cps.SensorID(data[1] % 8)
			r.Window = cps.Window(data[3]%4)*144 + cps.Window(data[2]%8)
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
		if mode%6 >= 3 && data[0]%4 == 0 {
			flush()
		}
	}
	flush()
	return micros
}

// extremeSeverity picks, by b's high bits, the smallest or the largest
// valid severity, or the ordinary sev.
func extremeSeverity(b uint8, sev cps.Severity) cps.Severity {
	switch b >> 4 {
	case 0:
		return cps.Severity(math.SmallestNonzeroFloat64)
	case 1:
		return math.MaxFloat64
	}
	return sev
}

// Integrate equals the gather-then-evaluate oracle bit for bit, merge order
// and IDs included, at absolute windows and at a day's period, at δsim on
// both sides of 0.5 and exactly at it, on extreme valid severities and on
// long chains whose sums change bits when reassociated; and every summary
// it cached on an output cluster equals a fresh fold of that cluster.
func FuzzIntegrateKernelEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 3, 3, 5, 0, 0, 0, 0, 1, 2, 4, 4, 1, 5, 3, 9}, uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 2, 2, 2, 0, 1, 1, 1, 1, 3, 3, 3}, uint8(1), uint8(overlapRatio-1), uint8(1), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 1, 2, 2, 2, 0, 1, 1, 1, 1, 3, 3, 3}, uint8(1), uint8(overlapRatio+1), uint8(0), uint8(2))
	f.Add([]byte{1, 0, 1, 1, 1, 1, 255, 2, 0, 0, 0, 0, 1, 0, 1, 2, 1, 1, 255, 3}, uint8(2), uint8(0), uint8(1), uint8(1))
	f.Add([]byte{1, 7, 7, 1, 1, 8, 9, 2, 1, 9, 9, 3, 0, 0, 0, 0, 1, 7, 8, 4, 1, 9, 9, 1}, uint8(0), uint8(0), uint8(2), uint8(3))
	// Windows 287 and 288 against window 0 at a 288-window period: they
	// merge only if 288 folds onto 0.
	f.Add([]byte{1, 1, 143, 1, 1, 1, 0, 2, 0, 0, 0, 0, 1, 1, 0, 0}, uint8(0), uint8(0), uint8(5), uint8(0))
	// δsim exactly 0.5 (periodSel>>2 == 1), at both periods, under a
	// memory-on balance and the memory-off one.
	f.Add([]byte{1, 1, 10, 1, 1, 2, 20, 1, 0, 0, 0, 0, 1, 1, 30, 1, 0, 0, 0, 0, 1, 2, 20, 3, 1, 3, 30, 1}, uint8(0), uint8(0), uint8(4), uint8(3))
	f.Add([]byte{1, 1, 10, 1, 1, 2, 20, 1, 0, 0, 0, 0, 1, 1, 30, 1, 0, 0, 0, 0, 1, 2, 20, 3, 1, 3, 30, 1}, uint8(0), uint8(0), uint8(5), uint8(1))
	f.Add([]byte{1, 7, 7, 1, 1, 8, 9, 2, 1, 9, 9, 3, 0, 0, 0, 0, 1, 7, 8, 4, 1, 9, 9, 1}, uint8(0), uint8(0), uint8(4), uint8(0))
	// Extreme severities at δsim 0.5 and 0.4, chosen by the fourth byte's
	// high nibble: MaxFloat64 micros whose merges overflow to +Inf beside
	// ordinary ones in the first; subnormal beside MaxFloat64 in the second.
	f.Add([]byte{1, 1, 10, 0x11, 1, 2, 20, 0x72, 0, 0, 0, 0, 1, 1, 10, 0x11, 1, 2, 20, 0x12, 0, 0, 0, 0, 1, 2, 20, 0x13}, uint8(4), uint8(0), uint8(4), uint8(3))
	f.Add([]byte{1, 1, 10, 0x01, 1, 2, 20, 0x02, 0, 0, 0, 0, 1, 1, 10, 0x11, 1, 2, 20, 0x72, 0, 0, 0, 0, 1, 2, 20, 0x13}, uint8(4), uint8(0), uint8(13), uint8(1))
	// Subnormal-only micros sharing keys, at δsim 0.3; and single-record
	// MaxFloat64 micros on one sensor, which snowball to +Inf totals at a
	// day's period under Harmonic (memory off).
	f.Add([]byte{1, 1, 10, 0x01, 1, 1, 11, 0x02, 0, 0, 0, 0, 1, 1, 10, 0x03, 1, 2, 11, 0x04}, uint8(4), uint8(0), uint8(0), uint8(3))
	f.Add([]byte{4, 1, 1, 0x11, 4, 1, 2, 0x12, 4, 1, 1, 0x13, 4, 2, 1, 0x14}, uint8(4), uint8(0), uint8(5), uint8(1))
	// TestRejectionMemoryWindowOnlyDirty's micros in mode 3: c, z, w, y, x.
	f.Add([]byte{1, 1, 1, 9, 4, 2, 2, 9, 4, 5, 5, 9, 4, 5, 5, 9, 1, 2, 2, 29, 4, 3, 3, 9, 4, 1, 3, 9}, uint8(3), uint8(0), uint8(4), uint8(3))
	// At δsim 0.4, micros sharing a window and no sensor score 0.5 and
	// merge, met only in the window lists.
	f.Add([]byte{4, 1, 1, 9, 4, 2, 1, 9}, uint8(3), uint8(0), uint8(12), uint8(3))
	// Found by fuzzing a copy whose rejection memory ignored shared
	// sensors: the chain re-meets a rejected candidate after absorbing a
	// cluster that shares a sensor with it (δsim 0.3, Geometric).
	f.Add([]byte("00000200\x000000100"), uint8(1), uint8(5), uint8(99), uint8(77))
	// Long chains (mode 5) at δsim 0.5 and 0.4 at a day's period, the second
	// under Harmonic; and at period 0 with days 2^24 periods apart, where
	// the window slots are ranked.
	f.Add(longChainSeed(), uint8(5), uint8(0), uint8(5), uint8(3))
	f.Add(longChainSeed(), uint8(5), uint8(0), uint8(13), uint8(1))
	f.Add(longChainSeed(), uint8(5), uint8(1), uint8(12), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mode, size, periodSel, balSel uint8) {
		if len(data) > 4096 {
			return
		}
		var g IDGen
		micros := fuzzKernelMicros(data, mode, size, &g)
		opts := IntegrateOptions{
			SimThreshold: []float64{0.3, 0.5, 0.7, 0.4}[int(periodSel>>2)%4],
			Balance:      Balances[int(balSel)%len(Balances)],
			Period:       []cps.Window{0, 288}[int(periodSel)%2],
		}
		// Fresh clusters per side, so neither run can read summaries the
		// other memoized.
		var ga, gb IDGen
		ga.next.Store(g.next.Load())
		gb.next.Store(g.next.Load())
		// Every merge draws the next ID from its side's generator, so equal
		// IDs on the survivors pin the merge order as well as the result.
		got := integrateCore(cloneMicros(micros), opts, &ga)
		want := integrateGatherAll(cloneMicros(micros), opts, &gb)
		if !clustersBitEq(got, want) {
			t.Fatalf("Integrate %v\noracle    %v", got, want)
		}
		for _, c := range got {
			if s := c.summary.Load(); s != nil && !summaryFresh(c, s) {
				t.Fatalf("cluster %v: cached summary %+v differs from a fresh fold", c, *s)
			}
		}
	})
}

// longChainSeed is mode-5 input for a long chain: single-record micros on
// the four sensors, cycling through 32 days, all 8 buckets and six
// severity magnitudes, in an order that is not ascending by day, so merges
// add windows before, between and after the chain's windows in a bucket.
func longChainSeed() []byte {
	var data []byte
	for i := 0; i < 96; i++ {
		day := uint8(i*13) % 32
		data = append(data, 4, uint8(i%4)|uint8(i%6)<<2, day, uint8(i%8)|uint8(i*5%9)<<3)
	}
	return data
}

// summaryFresh reports whether s has the bits of the summary summaryAt
// computes for c from scratch.
func summaryFresh(c *Cluster, s *summary) bool {
	tf := FoldTemporal(c.TF, s.period)
	same := func(a, b cps.Severity) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	return featuresBitEq(s.tf, tf) && same(s.sfTotal, c.SF.Total()) && same(s.tfTotal, tf.Total())
}

// clustersBitEq is clustersExactEq comparing severity bits, so NaN
// severities compare equal to themselves.
func clustersBitEq(a, b []*Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Micros != b[i].Micros ||
			!featuresBitEq(a[i].SF, b[i].SF) || !featuresBitEq(a[i].TF, b[i].TF) {
			return false
		}
	}
	return true
}

func featuresBitEq[K Key](a, b Feature[K]) bool {
	return slices.EqualFunc(a, b, func(x, y Entry[K]) bool {
		return x.Key == y.Key && math.Float64bits(float64(x.Sev)) == math.Float64bits(float64(y.Sev))
	})
}

// A candidate rejected by a chain must be evaluated again once the chain
// absorbs a cluster sharing only a folded window with it: the window raises
// its temporal overlap, and here that is enough for the chain to take it.
// Skipped, it would merge only at its own queue turn, after z and w merge,
// under a later ID.
func TestRejectionMemoryWindowOnlyDirty(t *testing.T) {
	for _, period := range []cps.Window{0, 288} {
		var g IDGen
		// c: sensors 1–2, windows 10 and 20. x shares sensor 1 and no
		// window, so the chain rejects it first (sim 0.375). y shares
		// sensor 2 and window 20 with c (sim 0.625) and merges; y's
		// window 30 — one day later at period 288 — is x's only window,
		// and y has no sensor of x. c+y against x scores 7/12. z and w
		// merge with each other and nothing else.
		c := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 10, Severity: 1}, {Sensor: 2, Window: 20, Severity: 1}})
		z := FromRecords(g.Next(), []cps.Record{{Sensor: 10, Window: 100, Severity: 1}})
		w := FromRecords(g.Next(), []cps.Record{{Sensor: 10, Window: 100, Severity: 1}})
		y := FromRecords(g.Next(), []cps.Record{{Sensor: 2, Window: 20, Severity: 3}, {Sensor: 3, Window: 30 + period, Severity: 1}})
		x := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 30, Severity: 1}})
		micros := []*Cluster{c, z, w, y, x}
		opts := IntegrateOptions{SimThreshold: 0.5, Balance: Arithmetic, Period: period}
		var ga, gb IDGen
		ga.next.Store(g.next.Load())
		gb.next.Store(g.next.Load())
		got := integrateCore(cloneMicros(micros), opts, &ga)
		want := integrateGatherAll(cloneMicros(micros), opts, &gb)
		if !clustersBitEq(got, want) {
			t.Fatalf("period %d: Integrate %v\noracle    %v", period, got, want)
		}
		// The chain's second merge, c+y+x, is the second ID drawn.
		chainID := ID(g.next.Load() + 2)
		if !slices.ContainsFunc(got, func(m *Cluster) bool { return m.ID == chainID && m.Micros == 3 }) {
			t.Fatalf("period %d: got %v, want c+y+x under ID %d", period, got, chainID)
		}
	}
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
