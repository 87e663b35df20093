package query

import (
	"context"
	"sync"
	"testing"

	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/obs/flight"
)

// TestSignalsAgree arms every sink on one Gui run and requires them to tell
// the same story to the nanosecond: a stage's span, its EXPLAIN entry and
// its wide-event entry share one clock read per boundary, and the run's
// elapsed time is the same number in Result, EXPLAIN, the root span and the
// atyp_query_seconds histogram.
func TestSignalsAgree(t *testing.T) {
	e, spec := pipeline(t, 200, 14)
	reg := obs.NewRegistry()
	e.Obs = NewMetrics(reg)
	q := CityQuery(e.Net, spec, 0, 14, 0.05)

	var mu sync.Mutex
	spans := map[string]obs.Span{}
	ctx := obs.WithExporter(context.Background(), func(s obs.Span) {
		mu.Lock()
		spans[s.Name] = s
		mu.Unlock()
	})
	ctx, exp := WithExplain(ctx)
	ctx, fe := flight.WithEvent(ctx)
	res, err := e.RunCtx(ctx, q, Gui)
	if err != nil {
		t.Fatal(err)
	}

	stageNS := func(stages []ExplainStage, name string) (int64, bool) {
		for _, st := range stages {
			if st.Name == name {
				return st.DurationNS, true
			}
		}
		return 0, false
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"redzones", "integrate"} {
		sp, ok := spans["query."+name]
		if !ok {
			t.Fatalf("span query.%s not exported", name)
		}
		expNS, ok := stageNS(exp.Stages, name)
		if !ok {
			t.Fatalf("EXPLAIN has no %s stage", name)
		}
		feNS, ok := stageNS(fe.Stages, name)
		if !ok {
			t.Fatalf("wide event has no %s stage", name)
		}
		if got := sp.Duration.Nanoseconds(); got != expNS || got != feNS {
			t.Errorf("%s: span %dns, EXPLAIN %dns, wide event %dns — want one duration", name, got, expNS, feNS)
		}
	}

	root := spans["query.run"]
	if exp.ElapsedNS != int64(res.Elapsed) || root.Duration != res.Elapsed {
		t.Errorf("elapsed: Result %v, EXPLAIN %dns, query.run span %v — want one duration",
			res.Elapsed, exp.ElapsedNS, root.Duration)
	}
	h, ok := reg.Snapshot().Histogram("atyp_query_seconds", "strategy", "gui")
	if !ok || h.Count != 1 || h.Sum != res.Elapsed.Seconds() {
		t.Errorf("atyp_query_seconds = %+v (present=%v), want one observation of %v", h, ok, res.Elapsed.Seconds())
	}
	if fe.TraceID == "" || fe.TraceID != root.TraceHex() {
		t.Errorf("wide event trace %q, root span trace %q", fe.TraceID, root.TraceHex())
	}
}

// TestRecorderUnarmedAllocs pins the disabled path: with no span exporter,
// Explain or flight event armed and nil Metrics, recording a run's stages and
// finishing it allocates nothing.
func TestRecorderUnarmedAllocs(t *testing.T) {
	e := &Engine{}
	res := &Result{}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		var rec recorder
		rec.arm(ctx, e, Query{}, Gui)
		rec.stage("redzones", 1, 1)
		rec.stage("integrate", 1, 1)
		rec.finish(res, nil)
	})
	if allocs != 0 {
		t.Errorf("unarmed recorder allocates %v per run, want 0", allocs)
	}
}
