package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

// pipelineConfig is the small deployment the file pipeline tests run on.
func pipelineConfig() atypical.Config {
	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.DaysPerMonth = 80, 5
	return cfg
}

// ingestCatalog returns a system that ingested every dataset of the catalog
// at dir directly, with no forest file in between.
func ingestCatalog(t *testing.T, dir string) *atypical.System {
	t.Helper()
	sys, err := atypical.NewSystem(pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := storage.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range catalog.List() {
		rs, err := catalog.Read(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.IngestCtx(context.Background(), rs); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// The file pipeline answers like the facade: atypquery over a catalog and
// the forest saved from it prints the significant set System.Run returns on
// a system that ingested the catalog directly, IDs included, for every
// strategy, unsharded and over two in-process shards. The catalog is what
// atypgen writes and the forest what atypforest writes (their own tests pin
// both to the facade byte for byte).
func TestRunMatchesFacadeRun(t *testing.T) {
	data, forest := t.TempDir(), t.TempDir()
	gen, err := atypical.NewSystem(pipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := storage.OpenCatalog(data)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		if _, err := catalog.Write(fmt.Sprintf("d%02d", m+1), gen.GenerateMonth(m).Atypical); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingestCatalog(t, data).SaveForest(forest); err != nil {
		t.Fatal(err)
	}

	const deltaS = 0.005
	for _, strat := range []string{"all", "pru", "gui"} {
		for _, shards := range []string{"0", "2"} {
			args := []string{"-forest", forest, "-data", data, "-sensors", "80",
				"-from", "1", "-days", "7", "-deltas", fmt.Sprint(deltaS), "-strategy", strat, "-shards", shards}
			var out strings.Builder
			if code := run(args, &out); code != 0 {
				t.Fatalf("%s shards=%s: run exited %d:\n%s", strat, shards, code, out.String())
			}
			s, err := atypical.ParseStrategy(strat)
			if err != nil {
				t.Fatal(err)
			}
			ref := ingestCatalog(t, data)
			want, err := ref.Run(context.Background(), atypical.QueryRequest{FirstDay: 1, Days: 7, DeltaS: deltaS, Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Significant) == 0 {
				t.Fatalf("%s: no significant clusters; the comparison would be vacuous", strat)
			}
			summary := fmt.Sprintf("%d macro-clusters, %d significant;", len(want.Macros), len(want.Significant))
			if got := out.String(); !strings.Contains(got, summary) || !strings.Contains(got, "\n\n"+ref.Ranking(want.Significant)) {
				t.Errorf("%s shards=%s: output differs from System.Run (%s):\n%s\nwant ranking:\n%s",
					strat, shards, summary, got, ref.Ranking(want.Significant))
			}
		}
	}

	// -map and -explain render from the same run; a bad strategy is refused.
	var out strings.Builder
	if code := run([]string{"-forest", forest, "-data", data, "-sensors", "80", "-map", "-explain"}, &out); code != 0 {
		t.Fatalf("-map -explain exited %d:\n%s", code, out.String())
	}
	for _, section := range []string{"region severity map", "EXPLAIN Gui"} {
		if !strings.Contains(out.String(), section) {
			t.Errorf("-map -explain output lacks %q:\n%s", section, out.String())
		}
	}
	if code := run([]string{"-forest", forest, "-data", data, "-strategy", "bogus"}, &out); code != 1 {
		t.Errorf("unknown strategy exited %d, want 1", code)
	}
}
