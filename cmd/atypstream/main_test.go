package main

import (
	"strings"
	"testing"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/storage"
)

// atypstream alerts on exactly the events the facade's stream processor
// closes above the alert severity, in closing order.
func TestRunAlertsMatchFacadeStream(t *testing.T) {
	cfg := atypical.DefaultConfig()
	cfg.Sensors, cfg.DaysPerMonth = 60, 4
	sys, err := atypical.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := t.TempDir()
	catalog, err := storage.OpenCatalog(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := catalog.Write("d01", sys.GenerateMonth(0).Atypical); err != nil {
		t.Fatal(err)
	}
	rs, err := catalog.Read("d01")
	if err != nil {
		t.Fatal(err)
	}

	const alert = 200
	var want strings.Builder
	p, err := sys.NewStreamProcessor(func(c *atypical.Cluster) {
		if c.Severity() >= alert {
			want.WriteString("ALERT " + sys.Describe(c) + "\n")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Records() {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("no alerts; the comparison would be vacuous")
	}

	var out strings.Builder
	if code := run([]string{"-data", data, "-name", "d01", "-sensors", "60", "-alert", "200"}, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if strings.HasPrefix(line, "ALERT ") {
			got.WriteString(line)
		}
	}
	if got.String() != want.String() {
		t.Errorf("alerts differ from the facade stream:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if code := run([]string{"-data", data}, &out); code != 1 {
		t.Errorf("missing -name exited %d, want 1", code)
	}
}
