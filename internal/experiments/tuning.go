package experiments

import (
	"fmt"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/forest"
)

// Fig20 reproduces the cluster-count parameter study: the number of
// micro-clusters (per day), weekly macro-clusters, monthly macro-clusters,
// and weekly/monthly significant clusters, as δt and δd vary. One month of
// data is used, as in Section V-C.
func Fig20(e *Env) []*Table {
	a := &Table{
		ID:     "fig20a",
		Title:  "#clusters vs δt (paper: macro counts fall as δt grows; significant counts stay stable)",
		Header: []string{"δt(min)", "micro/day", "macro(week)", "macro(month)", "sig(week)", "sig(month)"},
	}
	for _, dt := range []time.Duration{15 * time.Minute, 20 * time.Minute, 40 * time.Minute, 80 * time.Minute} {
		row := e.clusterCounts(e.Cfg.DeltaD, dt)
		a.AddRow(fmt.Sprintf("%.0f", dt.Minutes()), row.microPerDay, row.macroWeek, row.macroMonth, row.sigWeek, row.sigMonth)
	}
	b := &Table{
		ID:     "fig20b",
		Title:  "#clusters vs δd (paper: smaller influence than δt; significant counts robust)",
		Header: []string{"δd(mi)", "micro/day", "macro(week)", "macro(month)", "sig(week)", "sig(month)"},
	}
	for _, dd := range []float64{1.5, 3, 6, 12, 24} {
		row := e.clusterCounts(dd, e.Cfg.DeltaT)
		b.AddRow(fmt.Sprintf("%.1f", dd), row.microPerDay, row.macroWeek, row.macroMonth, row.sigWeek, row.sigMonth)
	}
	return []*Table{a, b}
}

type countRow struct {
	microPerDay float64
	macroWeek   float64
	macroMonth  int
	sigWeek     float64
	sigMonth    int
}

// clusterCounts builds a System under (δd, δt), ingests month 0 into it,
// and counts clusters at each level of its forest.
func (e *Env) clusterCounts(deltaD float64, deltaT time.Duration) countRow {
	cfg := e.Cfg.Config
	cfg.DeltaD, cfg.DeltaT = deltaD, deltaT
	f := e.system(cfg, 1).Forest()
	st := f.Stats()

	n := e.Net.NumSensors()
	weekBound := cluster.SignificanceBound(e.Cfg.DeltaS, 7*e.Spec.PerDay(), n)
	monthBound := cluster.SignificanceBound(e.Cfg.DeltaS, e.Cfg.DaysPerMonth*e.Spec.PerDay(), n)

	weeks := max(e.Cfg.DaysPerMonth/forest.DaysPerWeek, 1)
	var macroWeek, sigWeek int
	for w := 0; w < weeks; w++ {
		cs := f.Week(w)
		macroWeek += len(cs)
		for _, c := range cs {
			if c.Significant(weekBound) {
				sigWeek++
			}
		}
	}
	month := f.Month(0)
	sigMonth := 0
	for _, c := range month {
		if c.Significant(monthBound) {
			sigMonth++
		}
	}
	return countRow{
		microPerDay: float64(st.MicroTotal) / float64(max(st.Days, 1)),
		macroWeek:   float64(macroWeek) / float64(weeks),
		macroMonth:  len(month),
		sigWeek:     float64(sigWeek) / float64(weeks),
		sigMonth:    sigMonth,
	}
}

// Fig21 reproduces the average severity of significant monthly clusters as
// a function of δsim for the five balance functions g.
func Fig21(e *Env) []*Table {
	t := &Table{
		ID:     "fig21",
		Title:  "Avg severity of significant clusters vs δsim (paper: max integrates most, min least; severity falls with δsim)",
		Header: []string{"δsim", "min", "har", "geo", "avg", "max"},
	}
	// Month 0 at the default thresholds, reused across (g, δsim).
	leaves := e.micros(e.Cfg.DaysPerMonth)
	n := e.Net.NumSensors()
	bound := cluster.SignificanceBound(e.Cfg.DeltaS, e.Cfg.DaysPerMonth*e.Spec.PerDay(), n)

	for _, dsim := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		row := []any{fmt.Sprintf("%.1f", dsim)}
		for _, g := range cluster.Balances {
			var idgen cluster.IDGen
			opts := e.Sys.Forest().Options()
			opts.SimThreshold, opts.Balance = dsim, g
			macros := cluster.Integrate(&idgen, leaves, opts)
			var sum cps.Severity
			count := 0
			for _, c := range macros {
				if c.Significant(bound) {
					sum += c.Severity()
					count++
				}
			}
			if count == 0 {
				row = append(row, 0.0)
			} else {
				row = append(row, float64(sum)/float64(count))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "severity unit: aggregated atypical minutes per significant monthly cluster")
	return []*Table{t}
}

// Registry maps experiment ids to their functions. Fig. 15 and 16 share a
// sweep and are produced together.
var Registry = map[string]func(*Env) []*Table{
	"fig14":         Fig14,
	"fig15":         Fig15, // also emits fig16
	"fig17":         Fig17,
	"fig18":         Fig18,
	"fig19":         Fig19,
	"fig20":         Fig20,
	"fig21":         Fig21,
	"abl-extract":   AblExtract,
	"abl-integrate": AblIntegrate,
	"abl-agg":       AblAggregate,
	"par-construct": ParConstruct,
	"ext-stream":    ExtStream,
	"ext-predict":   ExtPredict,
	"ext-trust":     ExtTrust,
}

// Order lists experiment ids in presentation order: the paper's figures
// first, then the ablations of DESIGN.md §5.
var Order = []string{
	"fig14", "fig15", "fig17", "fig18", "fig19", "fig20", "fig21",
	"par-construct",
	"abl-extract", "abl-integrate", "abl-agg",
	"ext-stream", "ext-predict", "ext-trust",
}
