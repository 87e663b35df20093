package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cpskit/atypical/internal/cps"
)

func TestIDGen(t *testing.T) {
	var g IDGen
	a, b := g.Next(), g.Next()
	if a == 0 {
		t.Error("IDs should start above zero")
	}
	if a == b {
		t.Error("IDs must be unique")
	}
	g.AdvancePast(40)
	if id := g.Next(); id != 41 {
		t.Errorf("after AdvancePast(40), Next = %d, want 41", id)
	}
	g.AdvancePast(7) // never backwards
	if id := g.Next(); id != 42 {
		t.Errorf("after AdvancePast(7), Next = %d, want 42", id)
	}
}

// paperExampleRecords reproduces the E_A prefix from the paper's Fig. 4.
func paperExampleRecords() []cps.Record {
	return []cps.Record{
		{Sensor: 1, Window: 97, Severity: 4}, // s1, 8:05-8:10, 4 min
		{Sensor: 1, Window: 98, Severity: 5}, // s1, 8:10-8:15, 5 min
		{Sensor: 2, Window: 98, Severity: 5}, // s2, 8:10-8:15, 5 min
		{Sensor: 3, Window: 99, Severity: 5}, // s3, 8:15-8:20, 5 min
		{Sensor: 4, Window: 99, Severity: 2}, // s4, 8:15-8:20, 2 min
	}
}

func TestFromRecordsPaperExample(t *testing.T) {
	var g IDGen
	c := FromRecords(g.Next(), paperExampleRecords())
	// SF: s1 aggregates 4+5=9 across windows (Definition 4's μ).
	if got := c.SF.Get(1); got != 9 {
		t.Errorf("μ(s1) = %v, want 9", got)
	}
	if got := c.SF.Get(4); got != 2 {
		t.Errorf("μ(s4) = %v, want 2", got)
	}
	// TF: window 98 aggregates 5+5=10 (ν).
	if got := c.TF.Get(98); got != 10 {
		t.Errorf("ν(w98) = %v, want 10", got)
	}
	if got := c.TF.Get(97); got != 4 {
		t.Errorf("ν(w97) = %v, want 4", got)
	}
	if c.Severity() != 21 {
		t.Errorf("severity = %v, want 21", c.Severity())
	}
	if c.Micros != 1 {
		t.Errorf("Micros = %d", c.Micros)
	}
	// ΣSF == ΣTF always.
	if c.SF.Total() != c.TF.Total() {
		t.Error("feature totals must agree")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(1, sf(1, 5), TemporalFeature{{Key: 0, Sev: 5}}); err != nil {
		t.Errorf("valid cluster rejected: %v", err)
	}
	// Mismatched totals.
	if _, err := New(1, sf(1, 5), TemporalFeature{{Key: 0, Sev: 4}}); err == nil {
		t.Error("mismatched totals accepted")
	}
	// Invalid feature.
	if _, err := New(1, SpatialFeature{{Key: 1, Sev: -1}}, nil); err == nil {
		t.Error("invalid feature accepted")
	}
}

func TestClusterAccessors(t *testing.T) {
	var g IDGen
	c := FromRecords(g.Next(), paperExampleRecords())
	sensors := c.Sensors()
	if len(sensors) != 4 || sensors[0] != 1 || sensors[3] != 4 {
		t.Errorf("Sensors = %v", sensors)
	}
	span := c.WindowSpan()
	if span.From != 97 || span.To != 100 {
		t.Errorf("WindowSpan = %+v", span)
	}
	s, sev := c.PeakSensor()
	if s != 1 || sev != 9 {
		t.Errorf("PeakSensor = %d, %v", s, sev)
	}
	w, wsev := c.PeakWindow()
	if w != 98 || wsev != 10 {
		t.Errorf("PeakWindow = %d, %v", w, wsev)
	}
	if c.String() == "" {
		t.Error("String should describe the cluster")
	}
}

func TestEmptyClusterAccessors(t *testing.T) {
	c := &Cluster{ID: 1}
	if c.Severity() != 0 {
		t.Error("empty severity")
	}
	if span := c.WindowSpan(); span.Len() != 0 {
		t.Error("empty span")
	}
	if _, sev := c.PeakSensor(); sev != 0 {
		t.Error("empty peak sensor")
	}
	if _, sev := c.PeakWindow(); sev != 0 {
		t.Error("empty peak window")
	}
}

func TestMergePaperAlgorithm2(t *testing.T) {
	var g IDGen
	// Clusters C_A and C_C of the paper's Fig. 5 share sensors s1, s2.
	ca := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 97, Severity: 9},
		{Sensor: 2, Window: 98, Severity: 7},
		{Sensor: 3, Window: 99, Severity: 3},
	})
	cc := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 100, Severity: 10},
		{Sensor: 2, Window: 100, Severity: 5},
		{Sensor: 9, Window: 101, Severity: 6},
	})
	m := Merge(&g, ca, cc)
	if m.ID == ca.ID || m.ID == cc.ID {
		t.Error("merged cluster needs a fresh ID")
	}
	if got := m.SF.Get(1); got != 19 {
		t.Errorf("merged μ(s1) = %v, want 19", got)
	}
	if got := m.SF.Get(3); got != 3 {
		t.Errorf("non-common sensor lost: %v", got)
	}
	if got := m.SF.Get(9); got != 6 {
		t.Errorf("non-common sensor lost: %v", got)
	}
	if m.Severity() != ca.Severity()+cc.Severity() {
		t.Error("severity must be additive")
	}
	if m.Micros != 2 {
		t.Errorf("Micros=%d, want 2", m.Micros)
	}
	// Inputs untouched.
	if ca.SF.Get(1) != 9 || cc.SF.Get(1) != 10 {
		t.Error("Merge must not mutate inputs")
	}
}

func TestSimilarityPaperExample5(t *testing.T) {
	var g IDGen
	// C_A and C_B share sensors but happen at disjoint times (morning vs
	// evening): spatially similar, temporally dissimilar — the Example 5
	// reason they do NOT integrate.
	ca := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 97, Severity: 5},
		{Sensor: 2, Window: 98, Severity: 5},
	})
	cb := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 220, Severity: 5},
		{Sensor: 2, Window: 221, Severity: 5},
	})
	if got := SpatialSimilarity(ca, cb, Arithmetic); got != 1 {
		t.Errorf("spatial similarity = %v, want 1", got)
	}
	if got := TemporalSimilarity(ca, cb, Arithmetic); got != 0 {
		t.Errorf("temporal similarity = %v, want 0", got)
	}
	if got := Similarity(ca, cb, Arithmetic); got != 0.5 {
		t.Errorf("similarity = %v, want 0.5", got)
	}
	// C_A and C_C share sensors AND time: they integrate.
	cc := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 97, Severity: 5},
		{Sensor: 2, Window: 98, Severity: 5},
		{Sensor: 9, Window: 98, Severity: 1},
	})
	if got := Similarity(ca, cc, Arithmetic); got <= 0.5 {
		t.Errorf("related clusters similarity = %v, want > 0.5", got)
	}
}

func TestSignificance(t *testing.T) {
	bound := SignificanceBound(0.05, 288, 100) // 5% of a day over 100 sensors
	if math.Abs(float64(bound)-1440) > 1e-9 {
		t.Errorf("bound = %v, want 1440", bound)
	}
	var g IDGen
	big := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 0, Severity: 1441}})
	small := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 0, Severity: 1440}})
	if !big.Significant(bound) {
		t.Error("cluster above bound should be significant")
	}
	if small.Significant(bound) {
		t.Error("Definition 5 uses strict inequality")
	}
}

func randomCluster(rng *rand.Rand, g *IDGen) *Cluster {
	n := 1 + rng.Intn(12)
	recs := make([]cps.Record, n)
	for i := range recs {
		recs[i] = cps.Record{
			Sensor:   cps.SensorID(rng.Intn(20)),
			Window:   cps.Window(rng.Intn(40)),
			Severity: cps.Severity(rng.Intn(5)) + 1,
		}
	}
	return FromRecords(g.Next(), recs)
}

// Property 3 of the paper: merging is commutative and associative (up to the
// generated ID, which is fresh by construction).
func TestMergeCommutativeAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g IDGen
		a, b, c := randomCluster(rng, &g), randomCluster(rng, &g), randomCluster(rng, &g)
		ab := Merge(&g, a, b)
		ba := Merge(&g, b, a)
		if !featuresEqual(ab.SF, ba.SF) || !featuresEqual(ab.TF, ba.TF) {
			return false
		}
		left := Merge(&g, Merge(&g, a, b), c)
		right := Merge(&g, a, Merge(&g, b, c))
		return featuresEqual(left.SF, right.SF) && featuresEqual(left.TF, right.TF) &&
			left.Micros == right.Micros
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property 2 of the paper: features are algebraic — summarizing all records
// directly equals merging per-part summaries, for any partition.
func TestFeaturesAlgebraicProperty(t *testing.T) {
	f := func(seed int64, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		recs := make([]cps.Record, n)
		for i := range recs {
			recs[i] = cps.Record{
				Sensor:   cps.SensorID(rng.Intn(10)),
				Window:   cps.Window(rng.Intn(20)),
				Severity: cps.Severity(rng.Intn(4)) + 1,
			}
		}
		k := 1 + int(cut)%(n-1)
		var g IDGen
		whole := FromRecords(g.Next(), recs)
		merged := Merge(&g, FromRecords(g.Next(), recs[:k]), FromRecords(g.Next(), recs[k:]))
		return featuresEqual(whole.SF, merged.SF) && featuresEqual(whole.TF, merged.TF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: similarity is symmetric, bounded in [0,1], and reflexively 1.
func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(seed int64, gIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var gen IDGen
		a, b := randomCluster(rng, &gen), randomCluster(rng, &gen)
		g := Balances[int(gIdx)%len(Balances)]
		s := Similarity(a, b, g)
		if s < 0 || s > 1+1e-12 {
			return false
		}
		if math.Abs(s-Similarity(b, a, g)) > 1e-12 {
			return false
		}
		return math.Abs(Similarity(a, a, g)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func featuresEqual[K Key](a, b Feature[K]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !approxEq(float64(a[i].Sev), float64(b[i].Sev)) {
			return false
		}
	}
	return true
}
