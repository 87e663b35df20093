package query_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	atypical "github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/query"
)

// The query-signal goldens pin the bytes the query path reports about
// itself: the canonical EXPLAIN record and the flight-recorder wide event
// for every strategy × worker mode × sharding × cache verdict. Run-unique
// fields (timestamps, durations, trace IDs, merge-born cluster IDs) are
// normalized; everything else — cardinalities, stage names and order,
// bounds, forest version, severity generation, cache verdict, shard
// fan-out, SLO verdict — must repeat byte for byte. Regenerate with
//
//	go test ./internal/query/ -run TestQuerySignalGoldens -update
//
// and review the diff: a changed golden is a changed signal.

var update = flag.Bool("update", false, "rewrite the testdata/golden files from the current code")

// goldenConfig is a small deployment with two whole weeks.
func goldenConfig() atypical.Config {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 120
	cfg.DaysPerMonth = 14
	return cfg
}

// goldenSystem builds the recorder-armed serving configuration atypserve
// runs by default — span ring, metrics, query log sampling every event —
// plus a 1 h SLO per strategy so the verdict is fixed, and the answer cache.
func goldenSystem(t *testing.T, shards int) *atypical.System {
	t.Helper()
	ring := atypical.NewTraceRing(16)
	opts := []atypical.Option{
		atypical.WithObserver(atypical.NewObserver()),
		atypical.WithSpanExporter(ring.Export),
		atypical.WithQueryLog(atypical.QueryLogConfig{Entries: 8}),
		atypical.WithQueryCache(16),
	}
	for _, s := range []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided} {
		opts = append(opts, atypical.WithQuerySLO(s, atypical.SLOTarget{Latency: time.Hour, Objective: 0.99}))
	}
	if shards > 0 {
		opts = append(opts, atypical.WithShards(shards))
	}
	sys, err := atypical.NewSystem(goldenConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestCtx(context.Background(), sys.GenerateMonth(0).Atypical); err != nil {
		t.Fatal(err)
	}
	return sys
}

// normalizeEvent zeroes the run-unique fields of a wide event.
func normalizeEvent(ev atypical.QueryLogEvent) atypical.QueryLogEvent {
	ev.Time = time.Time{}
	ev.DurationNS = 0
	ev.TraceID = ""
	ev.Stages = append(ev.Stages[:0:0], ev.Stages...)
	for i := range ev.Stages {
		ev.Stages[i].DurationNS = 0
	}
	ev.Shards = append(ev.Shards[:0:0], ev.Shards...)
	for i := range ev.Shards {
		ev.Shards[i].DurationNS = 0
	}
	return ev
}

// goldenRun is one query's pair of signals.
type goldenRun struct {
	Explain *query.Explain         `json:"explain"`
	Event   atypical.QueryLogEvent `json:"event"`
}

// runSignals runs req once and returns its canonical EXPLAIN (nil unless
// req.Explain) and its normalized wide event.
func runSignals(t *testing.T, sys *atypical.System, req atypical.QueryRequest) goldenRun {
	t.Helper()
	res, err := sys.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	evs := sys.QueryLog()
	if len(evs) == 0 {
		t.Fatal("query log recorded no event")
	}
	return goldenRun{Explain: res.Explain.Canonical(), Event: normalizeEvent(evs[0])}
}

// checkGolden compares got's indented JSON with testdata/golden/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s: signals diverged from the golden:\n%s", name, firstDiff(string(data), string(want)))
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "(equal)"
}

// TestQuerySignalGoldens pins EXPLAIN and the wide event for All/Pru/Gui ×
// {unsharded, 2 local shards} × {cache miss, cache hit}. The EXPLAIN comes
// from a system asked for it; the event comes from a twin system that was
// not, which is how a recorder-armed server runs every query — and the
// twin's events must equal the explained system's. The "w0" in the golden
// names is the serial query path, the only one there is.
func TestQuerySignalGoldens(t *testing.T) {
	for _, shards := range []int{0, 2} {
		explained := goldenSystem(t, shards)
		plain := goldenSystem(t, shards)
		for _, s := range []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided} {
			req := atypical.QueryRequest{Days: 14, Strategy: s}
			runs := map[string]goldenRun{}
			for _, verdict := range []string{"miss", "hit"} {
				exReq := req
				exReq.Explain = true
				ex := runSignals(t, explained, exReq)
				pl := runSignals(t, plain, req)
				if pl.Explain != nil {
					t.Fatal("EXPLAIN returned without being requested")
				}
				if pl.Event.Cache != verdict {
					t.Fatalf("cache verdict = %q, want %q", pl.Event.Cache, verdict)
				}
				a, _ := json.Marshal(ex.Event)
				b, _ := json.Marshal(pl.Event)
				if !bytes.Equal(a, b) {
					t.Errorf("shards=%d %v %s: arming EXPLAIN changed the wide event:\n%s\nvs\n%s",
						shards, s, verdict, a, b)
				}
				runs[verdict] = goldenRun{Explain: ex.Explain, Event: pl.Event}
			}
			name := fmt.Sprintf("run_%s_w0_s%d.json", strings.ToLower(s.String()), shards)
			checkGolden(t, name, runs)
		}
	}
}
