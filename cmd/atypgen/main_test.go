package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

// atypgen writes exactly the months the facade generates for the same
// deployment, one catalog dataset per month.
func TestRunWritesFacadeMonths(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if code := run([]string{"-out", dir, "-sensors", "60", "-months", "2", "-days", "4", "-seed", "7"}, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.Seed, cfg.DaysPerMonth = 60, 7, 4
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDir := t.TempDir()
	want, err := storage.OpenCatalog(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		name := fmt.Sprintf("d%02d", m+1)
		if _, err := want.Write(name, sys.GenerateMonth(m).Atypical); err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(wantDir, name+".rec"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(dir, name+".rec"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s.rec differs from the facade's month %d", name, m)
		}
	}
	if !strings.Contains(out.String(), fmt.Sprintf("deployment: %d sensors", sys.Network().NumSensors())) {
		t.Errorf("summary does not name the deployment:\n%s", out.String())
	}
	if code := run([]string{"-bogus"}, &out); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
}
