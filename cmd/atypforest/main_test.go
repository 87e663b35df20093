package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

// atypforest writes the same forest files as SaveForest on a system that
// ingested the same catalog directly: the file pipeline and the facade
// share one wiring.
func TestRunMatchesFacadeForest(t *testing.T) {
	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.DaysPerMonth = 60, 4
	data := t.TempDir()
	catalog, err := storage.OpenCatalog(data)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := atypical.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		name := fmt.Sprintf("d%02d", m+1)
		if _, err := catalog.Write(name, ref.GenerateMonth(m).Atypical); err != nil {
			t.Fatal(err)
		}
		rs, err := catalog.Read(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.IngestCtx(context.Background(), rs); err != nil {
			t.Fatal(err)
		}
	}
	want := t.TempDir()
	if err := ref.SaveForest(want); err != nil {
		t.Fatal(err)
	}

	got := t.TempDir()
	var out strings.Builder
	if code := run([]string{"-data", data, "-out", got, "-sensors", "60"}, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	wantFiles, err := os.ReadDir(want)
	if err != nil {
		t.Fatal(err)
	}
	gotFiles, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFiles) != len(wantFiles) || len(wantFiles) == 0 {
		t.Fatalf("wrote %d files, facade wrote %d", len(gotFiles), len(wantFiles))
	}
	for _, f := range wantFiles {
		w, err := os.ReadFile(filepath.Join(want, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(got, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the facade's", f.Name())
		}
	}

	// A catalog from a larger deployment names sensors this one lacks: the
	// build fails instead of panicking.
	out.Reset()
	if code := run([]string{"-data", data, "-out", t.TempDir(), "-sensors", "20"}, &out); code != 1 {
		t.Errorf("mismatched deployment exited %d, want 1", code)
	}
}
