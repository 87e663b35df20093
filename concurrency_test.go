package atypical

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/forest"
)

// buildSystem constructs a system with the given options and ingests the
// deterministic first generated month.
func buildSystem(t *testing.T, options ...Option) *System {
	t.Helper()
	sys, err := NewSystem(testConfig(), options...)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, sys, sys.GenerateMonth(0).Atypical)
	return sys
}

// mustRun executes one request through Run — the single query entry point —
// failing the test on any error.
func mustRun(t *testing.T, sys *System, req QueryRequest) *Report {
	t.Helper()
	res, err := sys.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report
}

// renderLevels renders the forest levels above days — the month and the
// weekday/weekend path — with IDs and micro counts, for byte comparison.
func renderLevels(sys *System) string {
	var b strings.Builder
	describe := func(label string, cs []*cluster.Cluster) {
		for _, c := range cs {
			fmt.Fprintf(&b, "%s id=%d micros=%d %s\n", label, c.ID, c.Micros, sys.Describe(c))
		}
	}
	f := sys.Forest()
	describe("month0", f.Month(0))
	paths := f.IntegratePath(forest.WeekdayWeekendPath)
	buckets := make([]int, 0, len(paths))
	for bucket := range paths {
		buckets = append(buckets, bucket)
	}
	slices.Sort(buckets)
	for _, bucket := range buckets {
		describe(fmt.Sprintf("path%d", bucket), paths[bucket])
	}
	return b.String()
}

// Parallel ingestion must be byte-identical to the serial pipeline:
// block-reserved cluster IDs and day-sharded severity accumulation make the
// worker fan-out invisible, down to rendered report text, and the levels
// above days integrate with the one serial kernel for every worker count.
func TestParallelIngestByteIdenticalToSerial(t *testing.T) {
	serial := buildSystem(t, WithWorkers(0))
	want := renderRuns(t, serial, nil) + renderLevels(serial)
	if want == "" {
		t.Fatal("serial system rendered nothing; byte-identity check is vacuous")
	}
	for _, workers := range []int{1, 2, 4, -1} {
		sys := buildSystem(t, WithWorkers(workers))
		got := renderRuns(t, sys, nil) + renderLevels(sys)
		if got != want {
			t.Fatalf("workers=%d ingest diverged from serial:\n%s", workers, diffAt(got, want))
		}
	}
}

// GOMAXPROCS must not select an algorithm or reorder output: the full
// build-and-query pipeline renders identical bytes at 1 and 8 procs.
func TestPipelineByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	render := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return renderRuns(t, buildSystem(t, WithWorkers(4)), nil)
	}
	at1, at8 := render(1), render(8)
	if at1 != at8 {
		t.Fatalf("pipeline output depends on GOMAXPROCS:\n%s", diffAt(at1, at8))
	}
}

// Queries run while ingestion extends the forest; the race detector is the
// oracle, and queries must see a consistent snapshot throughout.
func TestConcurrentIngestAndQuery(t *testing.T) {
	sys, err := NewSystem(testConfig(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	months := []*RecordSet{
		sys.GenerateMonth(0).Atypical,
		sys.GenerateMonth(1).Atypical,
		sys.GenerateMonth(2).Atypical,
	}
	mustIngest(t, sys, months[0])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, strat := range []Strategy{IntegrateAll, Pruned, Guided} {
					if _, err := sys.Run(context.Background(), QueryRequest{Days: 7, Strategy: strat}); err != nil {
						t.Errorf("query during ingest: %v", err)
						return
					}
				}
			}
		}()
	}
	for _, m := range months[1:] {
		if err := sys.IngestCtx(context.Background(), m); err != nil {
			t.Errorf("ingest: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// After the storm the forest holds all three months.
	if got, want := sys.Forest().Stats().Days, 3*testConfig().DaysPerMonth; got != want {
		t.Fatalf("days after concurrent ingest = %d, want %d", got, want)
	}
}

func TestIngestCtxCancellation(t *testing.T) {
	sys, err := NewSystem(testConfig(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ds := sys.GenerateMonth(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sys.IngestCtx(ctx, ds.Atypical); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled IngestCtx error = %v, want context.Canceled", err)
	}
	if got := sys.Forest().Stats().Days; got != 0 {
		t.Fatalf("cancelled ingest materialized %d days", got)
	}
}

func TestQueryCtxCancellation(t *testing.T) {
	sys := buildSystem(t, WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Run(ctx, QueryRequest{Days: 7}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run error = %v, want context.Canceled", err)
	}
	if _, err := sys.IngestMonthsCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled IngestMonthsCtx error = %v, want context.Canceled", err)
	}
}

// diffAt locates the first byte where two renderings diverge.
func diffAt(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first difference at byte %d:\n a: …%q\n b: …%q", i, a[lo:i+20], b[lo:i+20])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}
