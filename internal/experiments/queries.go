package experiments

import (
	"fmt"

	"github.com/cpskit/atypical"
	"github.com/cpskit/atypical/internal/eval"
)

// strategies in the order the paper's legends use.
var strategies = []atypical.Strategy{atypical.IntegrateAll, atypical.Pruned, atypical.Guided}

// Fig17 reproduces query efficiency vs query range: (a) wall-clock time and
// (b) the number of input micro-clusters (the I/O measure), for the three
// strategies over a whole-city query.
func Fig17(e *Env) []*Table {
	a := &Table{
		ID:     "fig17a",
		Title:  "Query time vs range (seconds; paper: Gui ≈ 15-20% of All, close to Pru)",
		Header: []string{"days", "All", "Pru", "Gui"},
	}
	b := &Table{
		ID:     "fig17b",
		Title:  "Input micro-clusters vs range (paper: Gui prunes ~80% of All's inputs)",
		Header: []string{"days", "All", "Pru", "Gui"},
	}
	for _, days := range e.QueryRanges() {
		times := make([]float64, len(strategies))
		inputs := make([]int, len(strategies))
		for i, s := range strategies {
			res := e.run(atypical.QueryRequest{Days: days, Strategy: s})
			times[i] = res.Elapsed.Seconds()
			inputs[i] = res.InputMicros
		}
		a.AddRow(days, times[0], times[1], times[2])
		b.AddRow(days, inputs[0], inputs[1], inputs[2])
	}
	return []*Table{a, b}
}

// Fig18 reproduces precision and recall of significant clusters vs query
// range. Ground truth is the significant set of All (Section V-B protocol).
func Fig18(e *Env) []*Table {
	a := &Table{
		ID:     "fig18a",
		Title:  "Precision vs range (paper: Pru highest, precision drops with range)",
		Header: []string{"days", "All", "Pru", "Gui"},
	}
	b := &Table{
		ID:     "fig18b",
		Title:  "Recall vs range (paper: All=1, Gui ≈ 1, Pru can fall below 0.5)",
		Header: []string{"days", "All", "Pru", "Gui"},
	}
	for _, days := range e.QueryRanges() {
		pr := scoreStrategies(e, atypical.QueryRequest{Days: days})
		a.AddRow(days, pr[0].Precision, pr[1].Precision, pr[2].Precision)
		b.AddRow(days, pr[0].Recall, pr[1].Recall, pr[2].Recall)
	}
	a.Notes = append(a.Notes, "precision = significant/returned macros; the Algorithm 4 lines 5-7 filter is off, as in the paper's runs")
	return []*Table{a, b}
}

// Fig19 reproduces precision and recall vs the severity threshold δs at a
// fixed 14-day range. The δs sweep is scaled to this deployment (see
// EXPERIMENTS.md): the paper's 2-20% on 4,076 sensors corresponds to
// 0.5-5% here.
func Fig19(e *Env) []*Table {
	a := &Table{
		ID:     "fig19a",
		Title:  "Precision vs δs, 14-day query (paper: precision drops as δs grows)",
		Header: []string{"δs", "All", "Pru", "Gui"},
	}
	b := &Table{
		ID:     "fig19b",
		Title:  "Recall vs δs (paper: Pru recall rises with δs; Gui stays ≈ 1)",
		Header: []string{"δs", "All", "Pru", "Gui"},
	}
	days := 14
	if max := e.Cfg.QueryMonths * e.Cfg.DaysPerMonth; days > max {
		days = max
	}
	for _, ds := range []float64{0.005, 0.01, 0.015, 0.02, 0.03, 0.05} {
		pr := scoreStrategies(e, atypical.QueryRequest{Days: days, DeltaS: ds})
		label := fmt.Sprintf("%.1f%%", ds*100)
		a.AddRow(label, pr[0].Precision, pr[1].Precision, pr[2].Precision)
		b.AddRow(label, pr[0].Recall, pr[1].Recall, pr[2].Recall)
	}
	return []*Table{a, b}
}

// scoreStrategies runs req under all three strategies and scores them
// against All's significant set.
func scoreStrategies(e *Env, req atypical.QueryRequest) []eval.PR {
	results := make([]*atypical.RunResult, len(strategies))
	for i, s := range strategies {
		req.Strategy = s
		results[i] = e.run(req)
	}
	truth := results[0].Significant // All prunes nothing: its significant set is ground truth
	out := make([]eval.PR, len(strategies))
	for i, res := range results {
		out[i] = eval.Score(res.Macros, truth, res.Bound, e.Cfg.Balance)
	}
	return out
}
