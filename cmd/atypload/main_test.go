package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	atypical "github.com/cpskit/atypical"
)

// A tiny local run must produce both phases, a positive p99 ratio, and the
// JSON artifact; a doctored baseline must then trip the regression gate and
// preserve itself as the .prev.json copy.
func TestRunLocalArtifactAndRegressionGate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_load.json")
	var out strings.Builder
	args := []string{
		"-sensors", "40", "-days", "3", "-requests", "90", "-distinct", "3",
		"-workers", "2", "-json", path, "-maxregress", "0.25",
	}
	if code := run(args, &out); code != 0 {
		t.Fatalf("first run exited %d:\n%s", code, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res loadResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Mode != "local" || res.CacheOff == nil || res.CacheOn == nil {
		t.Fatalf("artifact missing phases: %+v", res)
	}
	if res.CacheOff.Reads != 90 || res.CacheOff.Errors != 0 || res.CacheOn.Errors != 0 {
		t.Fatalf("unexpected phase counters: off=%+v on=%+v", res.CacheOff, res.CacheOn)
	}
	if res.P99Improvement <= 0 {
		t.Fatalf("p99 improvement = %v, want > 0", res.P99Improvement)
	}
	if res.CacheOn.CacheHits == 0 || res.CacheOn.CacheMisses == 0 {
		t.Fatalf("cache-on phase recorded no cache traffic: %+v", res.CacheOn)
	}

	// Rewrite the artifact as an impossibly fast baseline: the next run's
	// cache-off p99 must regress past 25% and fail.
	res.CacheOff.P99Ms = 1e-9
	res.CacheOn.P99Ms = 1e-9
	doctored, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run(args, &out); code != 1 {
		t.Fatalf("regressed run exited %d, want 1:\n%s", code, out.String())
	}
	prev, err := os.ReadFile(filepath.Join(dir, "BENCH_load.prev.json"))
	if err != nil {
		t.Fatalf("baseline not preserved: %v", err)
	}
	if string(prev) != string(doctored) {
		t.Fatal("preserved baseline differs from the compared-against bytes")
	}
}

// The within-run ratio gate: an unreachable -minimprove floor fails the
// run on its own measurements, no baseline artifact involved.
func TestRunLocalMinImproveGate(t *testing.T) {
	var out strings.Builder
	args := []string{
		"-sensors", "40", "-days", "3", "-requests", "90", "-distinct", "3",
		"-workers", "2", "-minimprove", "1e12",
	}
	if code := run(args, &out); code != 1 {
		t.Fatalf("unreachable floor exited %d, want 1:\n%s", code, out.String())
	}
}

// HTTP mode posts wire-format bodies to the target and never attempts
// ingest operations, whatever the requested mix.
func TestRunHTTPModeIsReadOnly(t *testing.T) {
	var posts int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/query" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var q wireQuery
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			t.Errorf("undecodable body: %v", err)
		}
		if q.Strategy == "" || q.Days == nil {
			t.Errorf("incomplete wire query: %+v", q)
		}
		posts++
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	var out strings.Builder
	args := []string{"-target", srv.URL, "-requests", "24", "-workers", "1", "-mix", "0.5", "-distinct", "4"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("http run exited %d:\n%s", code, out.String())
	}
	if posts != 24 {
		t.Fatalf("server saw %d posts, want 24 (mix must be forced to pure reads)", posts)
	}
	if !strings.Contains(out.String(), "# http load: 24 reads") {
		t.Fatalf("summary missing: %s", out.String())
	}
}

// A non-200 answer counts as an error and fails the run.
func TestRunHTTPErrorsFailTheRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var out strings.Builder
	if code := run([]string{"-target", srv.URL, "-requests", "4", "-workers", "1"}, &out); code != 1 {
		t.Fatalf("run against failing server exited %d, want 1", code)
	}
}

// stallOnceRunner answers instantly except for its first request, which
// stalls for the given time.
type stallOnceRunner struct {
	calls *atomic.Int64
	stall time.Duration
}

func (r stallOnceRunner) do(atypical.QueryRequest) error {
	if r.calls.Add(1) == 1 {
		time.Sleep(r.stall)
	}
	return nil
}

// Paced reads count from their intended send time (no coordinated
// omission): one 200 ms stall at the head of a 100 req/s stream delays the
// next requests' sends, and their latencies must include that wait even
// though the runner answers them instantly.
func TestRunPhasePacedLatencyIncludesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	r := stallOnceRunner{calls: new(atomic.Int64), stall: stall}
	reqs := []atypical.QueryRequest{{Days: 1}}
	p := runPhase("paced", r, nil, nil, 10, 1, 1, 100, reqs)
	if p.Reads != 10 || p.Errors != 0 {
		t.Fatalf("reads=%d errors=%d, want 10 and 0", p.Reads, p.Errors)
	}
	// Request i was due at 10i ms and sent at ~200 ms; the median request
	// (i = 5) waited ~150 ms.
	if p.P50Ms < 100 {
		t.Errorf("paced p50 = %.2f ms, want the stall's queueing (>= 100 ms)", p.P50Ms)
	}
}

func TestPercentileMs(t *testing.T) {
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.99, 99}, {0.999, 100}} {
		if got := percentileMs(sorted, tc.q); got != tc.want {
			t.Errorf("percentileMs(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestPrevPath(t *testing.T) {
	for in, want := range map[string]string{
		"BENCH_load.json": "BENCH_load.prev.json",
		"out/load.json":   "out/load.prev.json",
		"noext":           "noext.prev",
	} {
		if got := prevPath(in); got != want {
			t.Errorf("prevPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// The deterministic mix spreads reads to the requested fraction.
func TestIsReadMix(t *testing.T) {
	const total = 1000
	for _, mix := range []float64{0, 0.5, 0.9, 1} {
		reads := 0
		for i := 0; i < total; i++ {
			if isRead(i, mix) {
				reads++
			}
		}
		got := float64(reads) / total
		if got < mix-0.02 || got > mix+0.02 {
			t.Errorf("mix %v produced read fraction %v", mix, got)
		}
	}
}

// A rejected ingest in the mixed stream counts as a phase error instead of
// passing silently.
func TestRunPhaseCountsIngestErrors(t *testing.T) {
	sys, err := buildSystem(40, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	outside := atypical.SensorID(sys.Network().NumSensors())
	bad := atypical.NewRecordSet([]atypical.Record{{Sensor: outside, Window: 0, Severity: 1}})
	p := runPhase("mixed", localRunner{sys}, sys, bad, 20, 1, 0, 0, readStream(2, 3))
	if p.Ingests != 20 || p.Errors != 20 {
		t.Fatalf("ingests %d, errors %d; want every rejected ingest counted", p.Ingests, p.Errors)
	}
}
