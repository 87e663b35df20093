package query

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/obs"
)

// TestExplainDeterminism is the golden check of the EXPLAIN contract: two
// identical queries over the same forest state produce byte-identical
// canonical Explain JSON, for every strategy.
func TestExplainDeterminism(t *testing.T) {
	e, spec := pipeline(t, 200, 14)
	q := CityQuery(e.Net, spec, 0, 14, 0.05)
	for _, s := range []Strategy{All, Pru, Gui} {
		var first []byte
		for run := 0; run < 3; run++ {
			ctx, exp := WithExplain(context.Background())
			if _, err := e.RunCtx(ctx, q, s); err != nil {
				t.Fatal(err)
			}
			data, err := exp.Canonical().JSON()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Errorf("run %d %v: canonical Explain JSON differs from the first run:\n--- first ---\n%s\n--- this run ---\n%s",
					run, s, first, data)
			}
		}
	}
}

// TestExplainContents checks the record tells the truth about the run it
// observed: strategy label, bound arithmetic, candidate accounting, merge
// tree shape, and significance verdicts all agree with the Result.
func TestExplainContents(t *testing.T) {
	e, spec := pipeline(t, 200, 14)
	q := CityQuery(e.Net, spec, 0, 14, 0.05)

	ctx, exp := WithExplain(context.Background())
	res, err := e.RunCtx(ctx, q, Gui)
	if err != nil {
		t.Fatal(err)
	}

	if exp.Strategy != "Gui" {
		t.Errorf("Strategy = %q", exp.Strategy)
	}
	numSensors := e.sensorsInRegions(q.Regions)
	wantBound := q.DeltaS * float64(q.Time.Len()) * float64(numSensors)
	if exp.Threshold.Bound != wantBound || exp.Threshold.DeltaS != q.DeltaS ||
		exp.Threshold.LengthT != q.Time.Len() || exp.Threshold.Sensors != numSensors {
		t.Errorf("threshold = %+v, want bound %g = %g·%d·%d",
			exp.Threshold, wantBound, q.DeltaS, q.Time.Len(), numSensors)
	}
	if exp.Candidates.Scanned != res.CandidateMicros || exp.Candidates.Kept != res.InputMicros ||
		exp.Candidates.Pruned != res.CandidateMicros-res.InputMicros {
		t.Errorf("candidates = %+v vs result scanned=%d kept=%d", exp.Candidates, res.CandidateMicros, res.InputMicros)
	}
	if exp.RedZones == nil || exp.RedZones.Count != res.RedZones {
		t.Errorf("red zones = %+v, want count %d", exp.RedZones, res.RedZones)
	}
	if exp.MergeTree.Inputs != res.InputMicros || exp.MergeTree.Macros != len(res.Macros) {
		t.Errorf("merge tree = %+v", exp.MergeTree)
	}
	if exp.Significance.Macros != len(res.Macros) || exp.Significance.Significant != len(res.Significant) {
		t.Errorf("significance = %+v vs result macros=%d significant=%d",
			exp.Significance, len(res.Macros), len(res.Significant))
	}
	for _, v := range exp.Significance.Verdicts {
		if v.Significant != (v.Severity > exp.Significance.Bound) {
			t.Errorf("verdict %+v inconsistent with bound %g", v, exp.Significance.Bound)
		}
	}
	var stages []string
	for _, st := range exp.Stages {
		stages = append(stages, st.Name)
	}
	want := []string{"candidates", "redzones", "guided_filter", "integrate", "significance"}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Errorf("stage[%d] = %q, want %q", i, stages[i], want[i])
		}
	}
	if exp.ElapsedNS <= 0 {
		t.Error("elapsed not stamped")
	}
	if exp.Text() == "" {
		t.Error("Text() empty")
	}
	if exp.Threshold.DayBound != nil {
		t.Error("day bound set on a Gui run")
	}

	// Pru records the day-scale pruning bound.
	ctx, exp = WithExplain(context.Background())
	if _, err := e.RunCtx(ctx, q, Pru); err != nil {
		t.Fatal(err)
	}
	if exp.Threshold.DayBound == nil {
		t.Error("Pru run missing day bound")
	} else if want := float64(cluster.SignificanceBound(q.DeltaS, spec.PerDay(), numSensors)); *exp.Threshold.DayBound != want {
		t.Errorf("day bound = %g, want %g", *exp.Threshold.DayBound, want)
	}
}

// TestExplainDoesNotChangeAnswer runs the same query with and without an
// armed Explain and compares everything about the answer that is stable
// across runs (IDs are generator draws, so severities stand in for them).
func TestExplainDoesNotChangeAnswer(t *testing.T) {
	e, spec := pipeline(t, 200, 14)
	q := CityQuery(e.Net, spec, 0, 14, 0.05)
	for _, s := range []Strategy{All, Pru, Gui} {
		plain, err := e.RunCtx(context.Background(), q, s)
		if err != nil {
			t.Fatal(err)
		}
		ctx, _ := WithExplain(context.Background())
		explained, err := e.RunCtx(ctx, q, s)
		if err != nil {
			t.Fatal(err)
		}
		if plain.CandidateMicros != explained.CandidateMicros ||
			plain.InputMicros != explained.InputMicros ||
			plain.RedZones != explained.RedZones ||
			plain.Bound != explained.Bound ||
			len(plain.Macros) != len(explained.Macros) ||
			len(plain.Significant) != len(explained.Significant) {
			t.Fatalf("%v: explain changed the result shape: %+v vs %+v", s, plain, explained)
		}
		for i := range plain.Macros {
			if plain.Macros[i].Severity() != explained.Macros[i].Severity() {
				t.Errorf("%v: macro %d severity %v vs %v", s, i, plain.Macros[i].Severity(), explained.Macros[i].Severity())
			}
		}
	}
}

// TestExplainFromContextNil checks the disabled path: no armed record, and
// the nil record's renderers are no-ops.
func TestExplainFromContextNil(t *testing.T) {
	if exp := ExplainFromContext(context.Background()); exp != nil {
		t.Fatalf("ExplainFromContext on bare context = %v", exp)
	}
	var exp *Explain
	if exp.Canonical() != nil {
		t.Error("nil Canonical")
	}
	if exp.Text() != "" {
		t.Error("nil Text")
	}
}

// TestSLOBurnRate checks the burn-rate arithmetic: breach fraction over the
// error budget, exported as a gauge alongside the breach counter.
func TestSLOBurnRate(t *testing.T) {
	r := obs.NewRegistry()
	m := NewMetrics(r)
	m.SetSLO(All, SLOTarget{Latency: time.Millisecond, Objective: 0.9})

	fast := &Result{Strategy: All, Elapsed: 100 * time.Microsecond}
	slow := &Result{Strategy: All, Elapsed: 10 * time.Millisecond}
	m.observe(fast, nil)
	snap := r.Snapshot()
	if v, _ := snap.Value("atyp_slo_burn_rate", "strategy", "all"); v != 0 {
		t.Errorf("burn rate after fast query = %v, want 0", v)
	}
	m.observe(slow, nil)
	snap = r.Snapshot()
	// 1 breach / 2 queries over a 0.1 budget → burn rate 5 (up to float
	// rounding of the budget subtraction).
	if v, _ := snap.Value("atyp_slo_burn_rate", "strategy", "all"); v < 5-1e-9 || v > 5+1e-9 {
		t.Errorf("burn rate = %v, want 5", v)
	}
	if v, _ := snap.Value("atyp_slo_breaches_total", "strategy", "all"); v != 1 {
		t.Errorf("breaches = %v, want 1", v)
	}
	if v, _ := snap.Value("atyp_slo_target_seconds", "strategy", "all"); v != 0.001 {
		t.Errorf("target = %v, want 0.001", v)
	}

	// Unconfigured strategies and invalid targets register nothing.
	m.observe(&Result{Strategy: Pru, Elapsed: time.Second}, nil)
	m.SetSLO(Gui, SLOTarget{Latency: -1, Objective: 0.9})
	m.SetSLO(Gui, SLOTarget{Latency: time.Second, Objective: 1.5})
	snap = r.Snapshot()
	if _, ok := snap.Value("atyp_slo_burn_rate", "strategy", "pru"); ok {
		t.Error("pru burn rate registered without SetSLO")
	}
	if _, ok := snap.Value("atyp_slo_burn_rate", "strategy", "gui"); ok {
		t.Error("invalid SLO targets registered series")
	}

	// Nil metrics: every SLO hook is a no-op.
	var nilM *Metrics
	nilM.SetSLO(All, SLOTarget{Latency: time.Second, Objective: 0.9})
	nilM.observe(fast, nil)
}
