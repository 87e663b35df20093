package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/cpskit/atypical/internal/experiments"
)

func TestPrevPath(t *testing.T) {
	cases := map[string]string{
		"BENCH_parallel.json":     "BENCH_parallel.prev.json",
		"out/BENCH_parallel.json": "out/BENCH_parallel.prev.json",
		"bench":                   "bench.prev",
	}
	for in, want := range cases {
		if got := prevPath(in); got != want {
			t.Errorf("prevPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestReadPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_parallel.json")
	if prev, _ := readPrevious(path); prev != nil {
		t.Error("missing file should yield nil")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if prev, _ := readPrevious(path); prev != nil {
		t.Error("unparseable file should yield nil")
	}
	if err := os.WriteFile(path, []byte(`{"serial":{"total_s":2.0},"parallel":{"total_s":0.5},"speedup":4.0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	prev, data := readPrevious(path)
	if prev == nil || prev.Serial.Total != 2.0 || prev.Parallel.Total != 0.5 {
		t.Fatalf("readPrevious = %+v", prev)
	}
	if len(data) == 0 {
		t.Error("raw bytes not returned")
	}
}

func TestRegressionGate(t *testing.T) {
	prev := &experiments.ParResult{Calib: 0.01}
	prev.Serial.Total = 2.0
	prev.Parallel.Total = 1.0
	cur := &experiments.ParResult{Calib: 0.01}

	// Within budget: 20% slower with 25% allowed.
	cur.Serial.Total, cur.Parallel.Total = 2.4, 1.2
	if msg := regression(prev, cur, 0.25); msg != "" {
		t.Errorf("within-budget run flagged: %s", msg)
	}
	// Serial regressed beyond budget.
	cur.Serial.Total, cur.Parallel.Total = 2.6, 1.0
	if msg := regression(prev, cur, 0.25); msg == "" {
		t.Error("serial regression not flagged")
	}
	// Parallel regressed beyond budget.
	cur.Serial.Total, cur.Parallel.Total = 2.0, 1.3
	if msg := regression(prev, cur, 0.25); msg == "" {
		t.Error("parallel regression not flagged")
	}
	// Speedups (faster runs) never trip the gate.
	cur.Serial.Total, cur.Parallel.Total = 1.0, 0.4
	if msg := regression(prev, cur, 0.25); msg != "" {
		t.Errorf("improvement flagged: %s", msg)
	}
	// Times compare in calibration units: a host 60 % slower throughout,
	// its calibration included, is not a regression; code 30 % slower on
	// a host 20 % faster is.
	cur.Calib = 0.016
	cur.Serial.Total, cur.Parallel.Total = 3.2, 1.6
	if msg := regression(prev, cur, 0.25); msg != "" {
		t.Errorf("slower host flagged: %s", msg)
	}
	cur.Calib = 0.008
	cur.Serial.Total, cur.Parallel.Total = 2.08, 0.8
	if msg := regression(prev, cur, 0.25); msg == "" {
		t.Error("serial regression on a faster host not flagged")
	}
	// The sharded query is held in units of the unsharded one: both 60 %
	// slower is not a regression, the sharded alone 30 % slower is.
	prev.ShardQuery = &experiments.ShardQueryBench{UnshardedS: 0.001, ShardedS: 0.0012}
	cur.ShardQuery = &experiments.ShardQueryBench{UnshardedS: 0.0016, ShardedS: 0.00192}
	cur.Calib = 0.01
	cur.Serial.Total, cur.Parallel.Total = 2.0, 1.0
	if msg := regression(prev, cur, 0.25); msg != "" {
		t.Errorf("uniformly slower queries flagged: %s", msg)
	}
	cur.ShardQuery = &experiments.ShardQueryBench{UnshardedS: 0.001, ShardedS: 0.00156}
	if msg := regression(prev, cur, 0.25); msg == "" {
		t.Error("sharded query regression not flagged")
	}
}

func TestGateOnlyComparesLikeHosts(t *testing.T) {
	host := func(total float64) *experiments.ParResult {
		r := &experiments.ParResult{GOMAXPROCS: 4, NumCPU: 4, GoVersion: "go1.24.0", Calib: 0.01}
		r.Serial.Total, r.Parallel.Total = total, total/2
		return r
	}
	prev, cur := host(2.0), host(2.6) // 30 % slower

	// Matched host facts: a 30 % regression fails the 25 % gate.
	if msg := gate(prev, cur, 0.25); msg == "" {
		t.Error("same-host 30% regression not gated")
	}
	// A disabled gate never fails.
	if msg := gate(prev, cur, 0); msg != "" {
		t.Errorf("disabled gate failed: %s", msg)
	}
	// Any mismatched host fact reports only.
	for name, mutate := range map[string]func(*experiments.ParResult){
		"gomaxprocs": func(r *experiments.ParResult) { r.GOMAXPROCS = 1 },
		"num_cpu":    func(r *experiments.ParResult) { r.NumCPU = 2 },
		"go_version": func(r *experiments.ParResult) { r.GoVersion = "go1.23.0" },
		"pre-facts":  func(r *experiments.ParResult) { r.NumCPU, r.GoVersion = 0, "" },
		"pre-calib":  func(r *experiments.ParResult) { r.Calib = 0 },
	} {
		other := host(2.0)
		mutate(other)
		if msg := gate(other, cur, 0.25); msg != "" {
			t.Errorf("%s mismatch gated a cross-host baseline: %s", name, msg)
		}
	}
}

// fastest keeps, per figure, the process with the smallest calibrated
// value, not the smallest raw time: a process on a slow moment has slow
// calibration and construction alike.
func TestFastestPerCalibratedFigure(t *testing.T) {
	run := func(calib, serial, parallel, sharded float64) experiments.ParResult {
		r := experiments.ParResult{Calib: calib, Metrics: map[string]float64{"calib": calib}}
		r.Serial.Total, r.Parallel.Total = serial, parallel
		r.Serial.Calib, r.Parallel.Calib = calib, calib
		r.ShardQuery = &experiments.ShardQueryBench{UnshardedS: 0.001, ShardedS: sharded}
		return r
	}
	runs := []experiments.ParResult{
		run(0.010, 0.012, 0.008, 0.0013), // serial 1.2 units, parallel 0.8
		run(0.020, 0.020, 0.018, 0.0011), // serial 1.0 units (slowest raw), parallel 0.9
		run(0.010, 0.011, 0.007, 0.0012), // serial 1.1 units, parallel 0.7
	}
	res := fastest(runs)
	if res.Serial.Total != 0.020 || res.Serial.Calib != 0.020 || res.Calib != 0.020 || res.Metrics["calib"] != 0.020 {
		t.Errorf("serial from the wrong process: %+v, calib %v", res.Serial, res.Calib)
	}
	if res.Parallel.Total != 0.007 || res.Parallel.Calib != 0.010 {
		t.Errorf("parallel from the wrong process: %+v", res.Parallel)
	}
	if res.ShardQuery.ShardedS != 0.0011 {
		t.Errorf("sharded query from the wrong process: %+v", res.ShardQuery)
	}
	if want := 1.0 / 0.7; math.Abs(res.Speedup-want) > 1e-9 {
		t.Errorf("speedup = %v, want %v (calibrated units)", res.Speedup, want)
	}

	// The gate reads each stage in its own calibration's units: the
	// parallel stage at 0.7 units against a baseline of 0.9 passes,
	// although its raw time over the artifact's calib_s would read 0.35.
	prev := run(0.010, 0.010, 0.009, 0.0011)
	if msg := regression(&prev, &res, 0.25); msg != "" {
		t.Errorf("combined artifact flagged: %s", msg)
	}
	res.Parallel.Total = 0.012 // 1.2 units against 0.9
	if msg := regression(&prev, &res, 0.25); msg == "" {
		t.Error("parallel regression in stage units not flagged")
	}
}
