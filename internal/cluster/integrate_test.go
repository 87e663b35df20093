package cluster

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"github.com/cpskit/atypical/internal/cps"
)

func defaultOpts() IntegrateOptions {
	return IntegrateOptions{SimThreshold: 0.5, Balance: Arithmetic}
}

func TestIntegratePaperExample(t *testing.T) {
	var g IDGen
	// Fig. 7: C_A and C_C are spatially related and timely close — merge.
	// C_B shares sensors with C_A but at disjoint times — stays separate.
	ca := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 97, Severity: 5},
		{Sensor: 2, Window: 98, Severity: 5},
	})
	cb := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 220, Severity: 5},
		{Sensor: 2, Window: 221, Severity: 5},
	})
	cc := FromRecords(g.Next(), []cps.Record{
		{Sensor: 1, Window: 97, Severity: 4},
		{Sensor: 2, Window: 98, Severity: 4},
		{Sensor: 9, Window: 99, Severity: 2},
	})
	out := Integrate(&g, []*Cluster{ca, cb, cc}, defaultOpts())
	if len(out) != 2 {
		t.Fatalf("clusters = %d, want 2", len(out))
	}
	var macro *Cluster
	for _, c := range out {
		if c.Micros == 2 {
			macro = c
		}
	}
	if macro == nil {
		t.Fatal("expected one macro-cluster of 2 micros")
	}
	if macro.SF.Get(1) != 9 {
		t.Errorf("macro μ(s1) = %v, want 9", macro.SF.Get(1))
	}
}

func TestIntegrateEmptyAndSingle(t *testing.T) {
	var g IDGen
	if out := Integrate(&g, nil, defaultOpts()); len(out) != 0 {
		t.Error("empty input")
	}
	c := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 0, Severity: 1}})
	out := Integrate(&g, []*Cluster{c}, defaultOpts())
	if len(out) != 1 || out[0] != c {
		t.Error("single cluster should pass through")
	}
}

func TestIntegratePanicsOnZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var g IDGen
	Integrate(&g, nil, IntegrateOptions{SimThreshold: 0})
}

func TestIntegrateNaivePanicsOnZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var g IDGen
	IntegrateNaive(&g, nil, IntegrateOptions{SimThreshold: 0})
}

func TestIntegrateChainMerges(t *testing.T) {
	// a~b and b~c but a!~c initially: after merging a,b the result is
	// similar to c and everything collapses into one macro-cluster. This is
	// the Phase 1 / Phase 2 worst case of Proposition 3.
	var g IDGen
	mk := func(keys ...int) *Cluster {
		var recs []cps.Record
		for _, k := range keys {
			recs = append(recs, cps.Record{Sensor: cps.SensorID(k), Window: cps.Window(k), Severity: 1})
		}
		return FromRecords(g.Next(), recs)
	}
	a := mk(0, 1, 2)
	b := mk(1, 2, 3)
	c := mk(2, 3, 4)
	opts := IntegrateOptions{SimThreshold: 0.5, Balance: Arithmetic}
	out := Integrate(&g, []*Cluster{a, b, c}, opts)
	if len(out) != 1 {
		t.Fatalf("clusters = %d, want 1 (chain collapse)", len(out))
	}
	if out[0].Micros != 3 {
		t.Errorf("Micros = %d", out[0].Micros)
	}
}

func randomMicros(rng *rand.Rand, g *IDGen, n int) []*Cluster {
	out := make([]*Cluster, n)
	for i := range out {
		out[i] = randomCluster(rng, g)
	}
	return out
}

// Both integration implementations reach a fixpoint that preserves total
// severity and micro count for every balance function.
func TestIntegrateInvariants(t *testing.T) {
	f := func(seed int64, gIdx, thIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var g IDGen
		micros := randomMicros(rng, &g, 2+rng.Intn(15))
		opts := IntegrateOptions{
			SimThreshold: []float64{0.2, 0.5, 0.8}[int(thIdx)%3],
			Balance:      Balances[int(gIdx)%len(Balances)],
		}
		var wantSev cps.Severity
		for _, m := range micros {
			wantSev += m.Severity()
		}
		for _, integrate := range []func(*IDGen, []*Cluster, IntegrateOptions) []*Cluster{Integrate, IntegrateNaive} {
			out := integrate(&g, micros, opts)
			var gotSev cps.Severity
			gotMicros := 0
			for _, c := range out {
				gotSev += c.Severity()
				gotMicros += c.Micros
				if !c.SF.Valid() || !c.TF.Valid() {
					return false
				}
			}
			if !approxEq(float64(gotSev), float64(wantSev)) || gotMicros != len(micros) {
				return false
			}
			if !fixpointHolds(out, opts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The indexed and naive variants produce the same number of clusters on
// workloads whose merge structure is order-independent (well-separated
// groups).
func TestIntegrateMatchesNaiveOnSeparatedGroups(t *testing.T) {
	var g IDGen
	var micros []*Cluster
	// Three well-separated groups of 3 near-identical clusters each.
	for grp := 0; grp < 3; grp++ {
		for rep := 0; rep < 3; rep++ {
			var recs []cps.Record
			for k := 0; k < 4; k++ {
				recs = append(recs, cps.Record{
					Sensor:   cps.SensorID(grp*100 + k),
					Window:   cps.Window(grp*1000 + k),
					Severity: cps.Severity(rep + 1),
				})
			}
			micros = append(micros, FromRecords(g.Next(), recs))
		}
	}
	opts := defaultOpts()
	fast := Integrate(&g, micros, opts)
	slow := IntegrateNaive(&g, micros, opts)
	if len(fast) != 3 || len(slow) != 3 {
		t.Fatalf("fast=%d slow=%d, want 3 groups", len(fast), len(slow))
	}
}

// Property 3 consequence: input order does not change the outcome on
// separated groups.
func TestIntegrateOrderInsensitiveOnSeparatedGroups(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g IDGen
		var micros []*Cluster
		groups := 2 + rng.Intn(3)
		for grp := 0; grp < groups; grp++ {
			for rep := 0; rep < 2+rng.Intn(3); rep++ {
				var recs []cps.Record
				for k := 0; k < 3; k++ {
					recs = append(recs, cps.Record{
						Sensor:   cps.SensorID(grp*1000 + k),
						Window:   cps.Window(grp*1000 + k),
						Severity: cps.Severity(rng.Intn(3) + 1),
					})
				}
				micros = append(micros, FromRecords(g.Next(), recs))
			}
		}
		shuffled := make([]*Cluster, len(micros))
		copy(shuffled, micros)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := Integrate(&g, micros, defaultOpts())
		b := Integrate(&g, shuffled, defaultOpts())
		if len(a) != groups || len(b) != groups {
			return false
		}
		var sa, sb cps.Severity
		for i := range a {
			sa += a[i].Severity()
			sb += b[i].Severity()
		}
		return approxEq(float64(sa), float64(sb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Keys from storage or the shard wire are untrusted: sensor IDs at both
// ends of uint32 and absolute windows ±2^40 apart (Period 0) must not size
// the posting lists by key span. The result matches the naive oracle.
func TestIntegrateHostileKeySpan(t *testing.T) {
	const far = cps.Window(1) << 40
	groups := []struct {
		sensors []cps.SensorID
		windows []cps.Window
	}{
		{[]cps.SensorID{0, 1}, []cps.Window{-far, -far + 1}},
		{[]cps.SensorID{math.MaxUint32 - 1, math.MaxUint32}, []cps.Window{far - 1, far}},
		{[]cps.SensorID{1 << 31}, []cps.Window{0}},
		{[]cps.SensorID{0, math.MaxUint32}, []cps.Window{-far, far}},
	}
	var g IDGen
	var micros []*Cluster
	for rep := 0; rep < 3; rep++ {
		for _, grp := range groups {
			var recs []cps.Record
			for i, s := range grp.sensors {
				recs = append(recs, cps.Record{Sensor: s, Window: grp.windows[i], Severity: cps.Severity(rep + 1)})
			}
			micros = append(micros, FromRecords(g.Next(), recs))
		}
	}
	opts := IntegrateOptions{SimThreshold: 0.5, Balance: Arithmetic}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fast := Integrate(&g, micros, opts)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("Integrate allocated %d bytes for %d micro-clusters", alloc, len(micros))
	}

	slow := IntegrateNaive(&g, micros, opts)
	byFirstKey := func(a, b *Cluster) int {
		if c := cmp.Compare(a.SF[0].Key, b.SF[0].Key); c != 0 {
			return c
		}
		return cmp.Compare(a.TF[0].Key, b.TF[0].Key)
	}
	slices.SortFunc(fast, byFirstKey)
	slices.SortFunc(slow, byFirstKey)
	if len(fast) != len(slow) {
		t.Fatalf("Integrate = %d clusters, IntegrateNaive = %d", len(fast), len(slow))
	}
	for i := range fast {
		// Integer severities sum exactly in any order.
		if fast[i].Micros != slow[i].Micros || !featuresExactEq(fast[i].SF, slow[i].SF) || !featuresExactEq(fast[i].TF, slow[i].TF) {
			t.Errorf("cluster %d: Integrate %v, IntegrateNaive %v", i, fast[i], slow[i])
		}
	}
}

// fixpointHolds verifies the Algorithm 3 postcondition: no pair of clusters
// in set has similarity above δsim.
func fixpointHolds(set []*Cluster, opts IntegrateOptions) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if opts.similarity(set[i], set[j]) > opts.SimThreshold {
				return false
			}
		}
	}
	return true
}

func TestFixpointHolds(t *testing.T) {
	var g IDGen
	a := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 0, Severity: 1}})
	b := FromRecords(g.Next(), []cps.Record{{Sensor: 1, Window: 0, Severity: 1}})
	opts := defaultOpts()
	if fixpointHolds([]*Cluster{a, b}, opts) {
		t.Error("identical clusters exceed any δsim < 1")
	}
	c := FromRecords(g.Next(), []cps.Record{{Sensor: 99, Window: 99, Severity: 1}})
	if !fixpointHolds([]*Cluster{a, c}, opts) {
		t.Error("disjoint clusters are a fixpoint")
	}
}
