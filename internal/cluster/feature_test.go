package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cpskit/atypical/internal/cps"
)

func sf(pairs ...float64) SpatialFeature {
	var entries []Entry[cps.SensorID]
	for i := 0; i+1 < len(pairs); i += 2 {
		entries = append(entries, Entry[cps.SensorID]{Key: cps.SensorID(pairs[i]), Sev: cps.Severity(pairs[i+1])})
	}
	return NewFeature(entries)
}

func TestNewFeatureSortsAndCoalesces(t *testing.T) {
	f := sf(3, 1, 1, 2, 3, 4)
	if len(f) != 2 {
		t.Fatalf("len = %d", len(f))
	}
	if f[0].Key != 1 || f[0].Sev != 2 {
		t.Errorf("f[0] = %+v", f[0])
	}
	if f[1].Key != 3 || f[1].Sev != 5 {
		t.Errorf("f[1] = %+v", f[1])
	}
	if !f.Valid() {
		t.Error("canonical feature should be valid")
	}
}

func TestFeatureGetTotalKeys(t *testing.T) {
	f := sf(1, 2, 5, 3)
	if f.Total() != 5 {
		t.Errorf("Total = %v", f.Total())
	}
	if f.Get(1) != 2 || f.Get(5) != 3 || f.Get(9) != 0 {
		t.Error("Get mismatch")
	}
	keys := f.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 5 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestFeatureClone(t *testing.T) {
	f := sf(1, 2)
	c := f.Clone()
	c[0].Sev = 99
	if f[0].Sev != 2 {
		t.Error("Clone should be independent")
	}
}

func TestMergeFeatureExample(t *testing.T) {
	// Equation 5 semantics: common keys accumulate, the rest carry over.
	a := sf(1, 10, 2, 5)
	b := sf(2, 7, 3, 1)
	m := MergeFeature(a, b)
	if len(m) != 3 {
		t.Fatalf("len = %d", len(m))
	}
	if m.Get(1) != 10 || m.Get(2) != 12 || m.Get(3) != 1 {
		t.Errorf("merged = %v", m)
	}
	// Inputs untouched.
	if a.Get(2) != 5 || b.Get(2) != 7 {
		t.Error("MergeFeature must not mutate inputs")
	}
}

func TestMergeFeatureEmpty(t *testing.T) {
	a := sf(1, 1)
	if got := MergeFeature(a, SpatialFeature(nil)); len(got) != 1 || got.Get(1) != 1 {
		t.Errorf("merge with empty = %v", got)
	}
	if got := MergeFeature[cps.SensorID](nil, nil); len(got) != 0 {
		t.Errorf("merge of empties = %v", got)
	}
}

func TestOverlapFractions(t *testing.T) {
	a := sf(1, 6, 2, 4) // total 10, common keys {2}: 4
	b := sf(2, 2, 3, 2) // total 4, common: 2
	p1, p2 := OverlapFractions(a, b)
	if math.Abs(p1-0.4) > 1e-12 || math.Abs(p2-0.5) > 1e-12 {
		t.Errorf("fractions = %v, %v", p1, p2)
	}
	// Disjoint features share nothing.
	p1, p2 = OverlapFractions(sf(1, 1), sf(2, 1))
	if p1 != 0 || p2 != 0 {
		t.Error("disjoint overlap should be zero")
	}
	// Identical features overlap fully.
	p1, p2 = OverlapFractions(a, a)
	if p1 != 1 || p2 != 1 {
		t.Errorf("self overlap = %v, %v", p1, p2)
	}
	// Empty features yield zero, not NaN.
	p1, p2 = OverlapFractions(nil, a)
	if p1 != 0 || p2 != 0 {
		t.Error("empty overlap should be zero")
	}
}

func TestCommonKeyCount(t *testing.T) {
	if got := CommonKeyCount(sf(1, 1, 2, 1, 3, 1), sf(2, 1, 3, 1, 4, 1)); got != 2 {
		t.Errorf("CommonKeyCount = %d", got)
	}
	if got := CommonKeyCount[cps.SensorID](nil, nil); got != 0 {
		t.Errorf("empty CommonKeyCount = %d", got)
	}
}

// Valid is the one rule every cluster entering the system must pass, so
// integration's skips can rely on it: strictly ascending keys, severities
// finite and positive. The extremes that pass stay kernel inputs in
// FuzzIntegrateKernelEquivalence.
func TestFeatureValid(t *testing.T) {
	bad1 := SpatialFeature{{Key: 2, Sev: 1}, {Key: 1, Sev: 1}} // unsorted
	bad3 := SpatialFeature{{Key: 1, Sev: 1}, {Key: 1, Sev: 2}} // duplicate key
	if bad1.Valid() || bad3.Valid() {
		t.Error("invalid key order accepted")
	}
	for _, sev := range []float64{0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := TemporalFeature{{Key: -3, Sev: 1}, {Key: 4, Sev: cps.Severity(sev)}}
		if f.Valid() {
			t.Errorf("severity %v accepted", sev)
		}
	}
	for _, sev := range []float64{math.SmallestNonzeroFloat64, 1, math.MaxFloat64} {
		if f := (SpatialFeature{{Key: 0, Sev: cps.Severity(sev)}}); !f.Valid() {
			t.Errorf("severity %v rejected", sev)
		}
	}
}

// Cluster.Valid adds the micro count to the feature rule: a cluster
// summarizes at least one micro-cluster, and merges keep that.
func TestClusterValidMicros(t *testing.T) {
	var g IDGen
	a := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 2, Severity: 1}})
	b := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 3, Severity: 2}})
	if ab := Merge(&g, a, b); !a.Valid() || !ab.Valid() || ab.Micros != 2 {
		t.Fatalf("micro and merge: valid %v/%v, merged micros %d", a.Valid(), ab.Valid(), ab.Micros)
	}
	for _, n := range []int{0, -1, math.MinInt, MaxMicros + 1, math.MaxInt} {
		if c := (&Cluster{ID: a.ID, Micros: n, SF: a.SF, TF: a.TF}); c.Valid() {
			t.Errorf("micro count %d accepted", n)
		}
	}
	// The largest valid counts integrate without wrapping.
	x := &Cluster{ID: a.ID, Micros: MaxMicros, SF: a.SF, TF: a.TF, sev: a.sev}
	y := &Cluster{ID: b.ID, Micros: MaxMicros, SF: b.SF, TF: b.TF, sev: b.sev}
	if !x.Valid() {
		t.Fatal("MaxMicros rejected")
	}
	out := Integrate(&g, []*Cluster{x, y}, IntegrateOptions{SimThreshold: 0.3, Balance: Arithmetic})
	if len(out) != 1 || out[0].Micros != 2*MaxMicros {
		t.Fatalf("integrated %v, want one cluster of %d micros", out, 2*MaxMicros)
	}
}

func featureFromSeeds(xs []uint16) SpatialFeature {
	entries := make([]Entry[cps.SensorID], 0, len(xs))
	for _, x := range xs {
		entries = append(entries, Entry[cps.SensorID]{
			Key: cps.SensorID(x % 32),
			Sev: cps.Severity(x%7) + 0.5,
		})
	}
	return NewFeature(entries)
}

// Property: MergeFeature is commutative, associative, total-preserving, and
// produces valid features — the algebraic feature property (paper
// Property 2) at feature level.
func TestMergeFeatureAlgebraicProperty(t *testing.T) {
	f := func(xs, ys, zs []uint16) bool {
		a, b, c := featureFromSeeds(xs), featureFromSeeds(ys), featureFromSeeds(zs)
		ab := MergeFeature(a, b)
		ba := MergeFeature(b, a)
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i].Key != ba[i].Key || !approxEq(float64(ab[i].Sev), float64(ba[i].Sev)) {
				return false
			}
		}
		abc1 := MergeFeature(ab, c)
		abc2 := MergeFeature(a, MergeFeature(b, c))
		if len(abc1) != len(abc2) {
			return false
		}
		for i := range abc1 {
			if abc1[i].Key != abc2[i].Key || !approxEq(float64(abc1[i].Sev), float64(abc2[i].Sev)) {
				return false
			}
		}
		if !abc1.Valid() {
			return false
		}
		return approxEq(float64(abc1.Total()), float64(a.Total()+b.Total()+c.Total()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: overlap fractions stay in [0, 1] and are symmetric as a pair.
func TestOverlapFractionsBoundsProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := featureFromSeeds(xs), featureFromSeeds(ys)
		p1, p2 := OverlapFractions(a, b)
		q2, q1 := OverlapFractions(b, a)
		if p1 < 0 || p1 > 1+1e-12 || p2 < 0 || p2 > 1+1e-12 {
			return false
		}
		return approxEq(p1, q1) && approxEq(p2, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
