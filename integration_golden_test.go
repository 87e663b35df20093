package atypical

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// The integration golden pins Algorithm 3's answers where its clusters
// snowball: three generated months of the default deployment, city-wide
// queries up to 84 days long, under every strategy. Each request writes one
// line carrying an FNV-64 digest of Result.Macros in output order — cluster
// ID, micro count, and every spatial and temporal key with the bits of its
// severity — so any change to a merge decision, a merge order, a float sum
// or an ID shows. Regenerate with
//
//	go test . -run TestIntegrationGolden -update
//
// and review the diff: a changed line is a changed answer.

var updateIntegrationGolden = flag.Bool("update", false, "rewrite testdata/integration_golden.txt from the current code")

const integrationGoldenFile = "testdata/integration_golden.txt"

// digestMacros hashes the macro-clusters in order over their IDs, micro
// counts and feature entries, severities by their exact bits.
func digestMacros(macros []*cluster.Cluster) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range macros {
		put(uint64(c.ID))
		put(uint64(c.Micros))
		put(uint64(len(c.SF)))
		for _, e := range c.SF {
			put(uint64(e.Key))
			put(math.Float64bits(float64(e.Sev)))
		}
		put(uint64(len(c.TF)))
		for _, e := range c.TF {
			put(uint64(e.Key))
			put(math.Float64bits(float64(e.Sev)))
		}
	}
	return h.Sum64()
}

// goldenMonths is how many generated months every golden system ingests.
const goldenMonths = 3

// newGoldenSystem returns an empty system of the default deployment with
// the given seed.
func newGoldenSystem(t *testing.T, seed int64) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// integrationGoldenLines runs the golden's requests for seeds 1 and 2
// against the system build returns for each seed, one line per request.
func integrationGoldenLines(t *testing.T, build func(t *testing.T, seed int64) *System) []string {
	var lines []string
	for _, seed := range []int64{1, 2} {
		sys := build(t, seed)
		days := goldenMonths * DefaultConfig().DaysPerMonth
		for _, strat := range []Strategy{IntegrateAll, Pruned, Guided} {
			for _, span := range []int{7, 28, 84} {
				for first := 0; first+span <= days; first += 21 {
					res, err := sys.Run(context.Background(), QueryRequest{FirstDay: first, Days: span, Strategy: strat})
					if err != nil {
						t.Fatalf("seed %d %v days [%d,+%d): %v", seed, strat, first, span, err)
					}
					lines = append(lines, fmt.Sprintf("seed=%d strategy=%v first=%d days=%d inputs=%d macros=%d digest=%016x",
						seed, strat, first, span, res.InputMicros, len(res.Macros), digestMacros(res.Macros)))
				}
			}
		}
	}
	return lines
}

// checkIntegrationGolden compares request lines with the golden file.
func checkIntegrationGolden(t *testing.T, lines []string) {
	t.Helper()
	want, err := os.ReadFile(integrationGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) == strings.Join(lines, "\n")+"\n" {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d golden lines, %d requests", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("request %d:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}

func TestIntegrationGolden(t *testing.T) {
	lines := integrationGoldenLines(t, func(t *testing.T, seed int64) *System {
		sys := newGoldenSystem(t, seed)
		mustIngestMonths(t, sys, goldenMonths)
		return sys
	})
	if *updateIntegrationGolden {
		if err := os.MkdirAll(filepath.Dir(integrationGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(integrationGoldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkIntegrationGolden(t, lines)
}

// TestReloadReproducesIntegrationGolden is the persistence gate: a forest
// saved right after ingest and loaded into a fresh system — severity index
// rebuilt from the same records — answers every golden request exactly as
// the system that saved it. Cluster files keep exact severities and IDs,
// and the load advances the fresh system's ID generator past them.
func TestReloadReproducesIntegrationGolden(t *testing.T) {
	lines := integrationGoldenLines(t, func(t *testing.T, seed int64) *System {
		saved := newGoldenSystem(t, seed)
		var recs []Record
		for _, ds := range mustIngestMonths(t, saved, goldenMonths) {
			recs = append(recs, ds.Atypical.Records()...)
		}
		dir := t.TempDir()
		if err := saved.SaveForest(dir); err != nil {
			t.Fatal(err)
		}
		sys := newGoldenSystem(t, seed)
		if err := sys.LoadForestAndRebuild(context.Background(), dir, cps.NewRecordSet(recs)); err != nil {
			t.Fatal(err)
		}
		return sys
	})
	checkIntegrationGolden(t, lines)
}
