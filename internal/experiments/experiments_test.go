package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	e, err := NewEnv(Small())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bee"},
		Notes:  []string{"hello"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("long-label", 12345.6)
	out := tab.Render()
	for _, needle := range []string{"== x: demo ==", "long-label", "12346", "note: hello"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Render missing %q in:\n%s", needle, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bee\n") {
		t.Errorf("CSV header: %q", csv)
	}
	if lines := strings.Count(csv, "\n"); lines != 3 {
		t.Errorf("CSV lines = %d", lines)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{0: "0", 12345: "12345", 12.34: "12.3", 0.5: "0.500"}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestFig14(t *testing.T) {
	e := testEnv(t)
	tabs := Fig14(e)
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	if len(tabs[0].Rows) != e.Cfg.Months {
		t.Errorf("rows = %d, want %d", len(tabs[0].Rows), e.Cfg.Months)
	}
	if tabs[0].Rows[0][0] != "D1" {
		t.Errorf("first dataset label = %q", tabs[0].Rows[0][0])
	}
}

func TestFig15And16Shapes(t *testing.T) {
	e := testEnv(t)
	tabs := Fig15(e)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d, want 2 (fig15 + fig16)", len(tabs))
	}
	f15, f16 := tabs[0], tabs[1]
	if len(f15.Rows) != e.Cfg.Months {
		t.Fatalf("fig15 rows = %d", len(f15.Rows))
	}
	// Shape: OC slower than MC and AC on the last (cumulative) row.
	last := f15.Rows[len(f15.Rows)-1]
	mc, ac, oc := parseF(t, last[1]), parseF(t, last[2]), parseF(t, last[3])
	if oc <= mc || oc <= ac {
		t.Errorf("OC (%v) should dominate MC (%v) and AC (%v)", oc, mc, ac)
	}
	// Sizes: OC biggest, AC well under AE. AC keeps every severity as its
	// exact 8-byte float64 (so a reloaded forest answers byte-identically)
	// where AE stores a quantized varint of one to three bytes, which puts
	// AC near a quarter of AE on these datasets.
	lastS := f16.Rows[len(f16.Rows)-1]
	mcS, acS, ocS, aeS := parseF(t, lastS[1]), parseF(t, lastS[2]), parseF(t, lastS[3]), parseF(t, lastS[4])
	if ocS <= aeS {
		t.Errorf("OC model (%v KB) should exceed AE (%v KB): it materializes every reading's cells", ocS, aeS)
	}
	if acS >= aeS/3 {
		t.Errorf("AC (%v KB) should be a small fraction of AE (%v KB)", acS, aeS)
	}
	if mcS >= ocS {
		t.Errorf("MC (%v KB) should be far below OC (%v KB)", mcS, ocS)
	}
}

func TestFig17Shapes(t *testing.T) {
	e := testEnv(t)
	tabs := Fig17(e)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	inputs := tabs[1]
	for _, row := range inputs.Rows {
		all, pru, gui := parseF(t, row[1]), parseF(t, row[2]), parseF(t, row[3])
		if pru > all || gui > all {
			t.Errorf("row %v: pruned strategies exceed All", row)
		}
		if gui < pru {
			t.Errorf("row %v: Gui (%v) should keep at least Pru's inputs (%v) on this workload", row, gui, pru)
		}
	}
}

func TestFig18And19Shapes(t *testing.T) {
	e := testEnv(t)
	for _, tabs := range [][]*Table{Fig18(e), Fig19(e)} {
		if len(tabs) != 2 {
			t.Fatalf("tables = %d", len(tabs))
		}
		for _, tab := range tabs {
			for _, row := range tab.Rows {
				for _, cell := range row[1:] {
					v := parseF(t, cell)
					if v < 0 || v > 1 {
						t.Errorf("%s row %v: %v outside [0,1]", tab.ID, row, v)
					}
				}
			}
		}
		// All's recall is 1 by construction.
		recall := tabs[1]
		for _, row := range recall.Rows {
			if parseF(t, row[1]) != 1 {
				t.Errorf("All recall = %v, want 1", row[1])
			}
		}
	}
}

func TestFig20Shapes(t *testing.T) {
	e := testEnv(t)
	tabs := Fig20(e)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) < 4 {
			t.Fatalf("%s rows = %d", tab.ID, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if parseF(t, row[1]) <= 0 {
				t.Errorf("%s: no micro-clusters at %v", tab.ID, row[0])
			}
		}
	}
	// Larger δt merges more: micro count at δt=80min ≤ at 15min.
	a := tabs[0]
	first := parseF(t, a.Rows[0][1])
	last := parseF(t, a.Rows[len(a.Rows)-1][1])
	if last > first {
		t.Errorf("micro/day grew with δt: %v -> %v", first, last)
	}
}

func TestFig21Shapes(t *testing.T) {
	e := testEnv(t)
	tabs := Fig21(e)
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	tab := tabs[0]
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 δsim values", len(tab.Rows))
	}
	// At low δsim the max balance function integrates at least as much
	// severity as min.
	row := tab.Rows[0]
	minV, maxV := parseF(t, row[1]), parseF(t, row[5])
	if maxV < minV {
		t.Errorf("max (%v) should integrate at least min (%v)", maxV, minV)
	}
}

func TestRegistryCoversOrder(t *testing.T) {
	for _, id := range Order {
		if _, ok := Registry[id]; !ok {
			t.Errorf("ordered experiment %q missing from registry", id)
		}
	}
	if len(Order) != len(Registry) {
		t.Errorf("Order (%d) and Registry (%d) out of sync", len(Order), len(Registry))
	}
}

func TestQueryRangesTruncated(t *testing.T) {
	e := testEnv(t) // 1 month × 7 days
	got := e.QueryRanges()
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("QueryRanges = %v, want [7]", got)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func sscan(s string, v *float64) (int, error) {
	// Strip the ~ and % decorations some cells carry.
	s = strings.TrimPrefix(s, "~")
	s = strings.TrimSuffix(s, "%")
	return fmt.Sscan(s, v)
}

func TestAblationsRun(t *testing.T) {
	e := testEnv(t)
	tables := map[string]*Table{}
	for _, id := range []string{"abl-extract", "abl-integrate", "abl-agg", "par-construct", "ext-stream", "ext-predict", "ext-trust"} {
		tabs := Registry[id](e)
		if len(tabs) != 1 {
			t.Fatalf("%s tables = %d", id, len(tabs))
		}
		if len(tabs[0].Rows) == 0 {
			t.Errorf("%s produced no rows (notes %q)", id, tabs[0].Notes)
		}
		tables[id] = tabs[0]
	}
	// ext-stream rows: batch, then stream; column 2 is the total severity,
	// which the stream must reproduce exactly.
	if rows := tables["ext-stream"].Rows; len(rows) != 2 || rows[0][2] != rows[1][2] {
		t.Errorf("ext-stream batch and stream severities differ: %v", rows)
	}
	// ext-trust rows: healthy, then the injected faulty sensors; column 2 is
	// the mean trust.
	if rows := tables["ext-trust"].Rows; len(rows) != 2 || parseF(t, rows[0][2]) <= parseF(t, rows[1][2]) {
		t.Errorf("ext-trust healthy mean trust not above the faulty mean: %v", rows)
	}
	if sq := MeasureShardedQuery(e, 2); !sq.Identical {
		t.Errorf("sharded query over 2 shards diverged from the unsharded answer: %+v", sq)
	}
}

func TestAblExtractAgreement(t *testing.T) {
	e := testEnv(t)
	tabs := AblExtract(e)
	for _, n := range tabs[0].Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("indexed and brute-force extraction disagreed: %s", n)
		}
	}
}

func TestAblAggregateRollupFaster(t *testing.T) {
	e := testEnv(t)
	tabs := AblAggregate(e)
	for _, row := range tabs[0].Rows {
		scan, rollup := parseF(t, row[1]), parseF(t, row[2])
		if rollup > scan {
			t.Errorf("rollup (%v µs) slower than scan (%v µs) at %s days", rollup, scan, row[0])
		}
	}
}
