// Query EXPLAIN. The paper's contribution is a cost/accuracy trade between
// the All/Pru/Gui strategies; aggregate counters (metrics.go) show the
// trade across traffic, but debugging one slow or surprising query needs
// the per-run story: which strategy ran, how many micro-clusters each stage
// saw and shed, which red zones Gui consulted, which forest version it
// read, the shape of the integration merge tree, and the significance
// bound arithmetic δs·length(T)·N applied to each macro-cluster's actual
// severity. An Explain record captures exactly that.
//
// Collection is per-request and context-armed, matching the span/metrics
// contract: WithExplain returns a context carrying an empty record, and the
// run's recorder (recorder.go) fills it once, when the run finishes, from
// the stages it recorded and the Result — the answer is never affected
// either way (the byte-identity tests run with explain armed).

package query

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/obs/flight"
)

// explainRedZoneCap bounds the region IDs embedded per record; the count
// is always exact.
const explainRedZoneCap = 128

// explainVerdictCap bounds the per-macro significance verdicts embedded per
// record; the aggregate counts are always exact.
const explainVerdictCap = 256

// Explain is the structured record of one query run. Field order is fixed
// (encoding/json emits struct fields in declaration order), and every
// embedded slice is produced in a deterministic order, so two runs over
// identical state marshal to identical bytes once timings are zeroed via
// Canonical.
type Explain struct {
	// Strategy is the paper's label for the executed strategy.
	Strategy string `json:"strategy"`
	// Query describes the question asked.
	Query ExplainQuery `json:"query"`
	// Threshold is the significance bound math of Definition 5.
	Threshold ExplainThreshold `json:"threshold"`
	// Stages lists the pipeline stages in execution order with timings and
	// input/output cardinalities.
	Stages []ExplainStage `json:"stages"`
	// Candidates summarizes the strategy's pruning behaviour.
	Candidates ExplainCandidates `json:"candidates"`
	// RedZones is present on Gui runs only.
	RedZones *ExplainRedZones `json:"red_zones,omitempty"`
	// Scatter is present on sharded runs only: the per-shard fan-out behind
	// the scatter/gather stages.
	Scatter *ExplainScatter `json:"scatter,omitempty"`
	// Forest describes the forest state consulted.
	Forest ExplainForest `json:"forest"`
	// MergeTree is the integration shape.
	MergeTree ExplainMergeTree `json:"merge_tree"`
	// Significance holds the per-macro verdicts of the final filter.
	Significance ExplainSignificance `json:"significance"`
	// ElapsedNS is the run's wall-clock time.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// ExplainQuery is the question: spatial extent, time range, threshold.
type ExplainQuery struct {
	Regions    int     `json:"regions"`
	Sensors    int     `json:"sensors"`
	FromWindow int64   `json:"from_window"`
	ToWindow   int64   `json:"to_window"`
	Windows    int     `json:"windows"`
	DeltaS     float64 `json:"delta_s"`
}

// ExplainThreshold spells out bound = δs · length(T) · N with the inputs.
type ExplainThreshold struct {
	DeltaS  float64 `json:"delta_s"`
	LengthT int     `json:"length_t"`
	Sensors int     `json:"sensors"`
	Bound   float64 `json:"bound"`
	// DayBound is the day-scale bound Pru prunes against, absent otherwise.
	DayBound *float64 `json:"day_bound,omitempty"`
}

// ExplainStage is one timed pipeline stage — the same record the flight
// recorder's wide event carries.
type ExplainStage = flight.Stage

// ExplainCandidates summarizes strategy pruning: Scanned candidates in
// range, Pruned = Scanned - Kept, Kept fed to integration.
type ExplainCandidates struct {
	Scanned int `json:"scanned"`
	Pruned  int `json:"pruned"`
	Kept    int `json:"kept"`
}

// ExplainRedZones reports the red zones a Gui run consulted. Regions is
// ascending by ID and capped at explainRedZoneCap entries; Count is exact.
type ExplainRedZones struct {
	Count     int   `json:"count"`
	Regions   []int `json:"regions"`
	Truncated bool  `json:"truncated,omitempty"`
}

// ExplainScatter reports a sharded run's fan-out: how many shards were
// queried, what each contributed, and which failed (leaving the answer
// explicitly partial).
type ExplainScatter struct {
	Shards   int            `json:"shards"`
	PerShard []ExplainShard `json:"per_shard"`
	Failed   []string       `json:"failed,omitempty"`
	Partial  bool           `json:"partial,omitempty"`
}

// ExplainShard is one shard's contribution to a scatter, in scatter order.
type ExplainShard struct {
	Name   string `json:"name"`
	Micros int    `json:"micros"`
}

// ExplainForest ties the answer to a forest state.
type ExplainForest struct {
	// Version is the forest's write-version counter at run time.
	Version uint64 `json:"version"`
}

// ExplainMergeTree is the integration shape: always the serial pairwise
// scan of cluster.Integrate, from Inputs micro-clusters to Macros.
type ExplainMergeTree struct {
	Inputs int `json:"inputs"`
	Macros int `json:"macros"`
}

// ExplainVerdict is the significance filter applied to one macro-cluster.
type ExplainVerdict struct {
	Cluster     uint64  `json:"cluster"`
	Severity    float64 `json:"severity"`
	Significant bool    `json:"significant"`
}

// ExplainSignificance is the final filter: every macro's actual severity
// against the bound. Verdicts follow integration output order, capped at
// explainVerdictCap entries; the counts are exact.
type ExplainSignificance struct {
	Bound       float64          `json:"bound"`
	Macros      int              `json:"macros"`
	Significant int              `json:"significant"`
	Verdicts    []ExplainVerdict `json:"verdicts"`
	Truncated   bool             `json:"truncated,omitempty"`
}

type explainKey struct{}

// WithExplain arms ctx to collect an Explain for the next engine run on
// this context and returns the record, which the run fills in place when it
// finishes. One record collects one run: arm a fresh context per query.
// Collection is not synchronized — use the returned record only after the
// run returns.
func WithExplain(ctx context.Context) (context.Context, *Explain) {
	exp := &Explain{}
	return context.WithValue(ctx, explainKey{}, exp), exp
}

// ExplainFromContext returns the armed record, or nil.
func ExplainFromContext(ctx context.Context) *Explain {
	exp, _ := ctx.Value(explainKey{}).(*Explain)
	return exp
}

// fill writes the record of the run r observed. res is nil when the run
// failed, leaving the question, the stages that completed and the elapsed
// time. A cache hit reports the question, the candidate accounting and its
// single cache stage; the strategy's intermediate state was never computed.
func (e *Explain) fill(r *recorder, res *Result, elapsed time.Duration) {
	q, n := r.q, r.sensors
	bound := float64(cluster.SignificanceBound(q.DeltaS, q.Time.Len(), n))
	*e = Explain{
		Strategy: r.s.String(),
		Query: ExplainQuery{
			Regions: len(q.Regions), Sensors: n, FromWindow: int64(q.Time.From), ToWindow: int64(q.Time.To),
			Windows: q.Time.Len(), DeltaS: q.DeltaS,
		},
		Threshold:    ExplainThreshold{DeltaS: q.DeltaS, LengthT: q.Time.Len(), Sensors: n, Bound: bound},
		Stages:       r.stages,
		Forest:       ExplainForest{Version: r.ver},
		Significance: ExplainSignificance{Bound: bound},
		ElapsedNS:    int64(elapsed),
	}
	if res == nil {
		return
	}
	e.Candidates = ExplainCandidates{Scanned: res.CandidateMicros, Pruned: res.CandidateMicros - res.InputMicros, Kept: res.InputMicros}
	if r.cache == "hit" {
		return
	}
	switch r.s {
	case Pru:
		dayBound := float64(cluster.SignificanceBound(q.DeltaS, r.e.Forest.Spec().PerDay(), n))
		e.Threshold.DayBound = &dayBound
	case Gui:
		// Zones arrive in GuidedRedZones' deterministic ascending order.
		rz := &ExplainRedZones{Count: len(r.zones), Regions: make([]int, 0, min(len(r.zones), explainRedZoneCap))}
		for _, z := range r.zones[:min(len(r.zones), explainRedZoneCap)] {
			rz.Regions = append(rz.Regions, int(z))
		}
		rz.Truncated = len(r.zones) > explainRedZoneCap
		e.RedZones = rz
	}
	if r.scattered {
		// Shard results arrive in scatter order, which is stable across runs.
		sc := &ExplainScatter{Shards: r.info.Shards, Failed: r.info.Failed, Partial: len(r.info.Failed) > 0}
		sc.PerShard = make([]ExplainShard, len(r.shards))
		for i, s := range r.shards {
			sc.PerShard[i] = ExplainShard{Name: s.Shard, Micros: len(s.Candidates)}
		}
		e.Scatter = sc
	}
	e.MergeTree = ExplainMergeTree{Inputs: res.InputMicros, Macros: len(res.Macros)}
	sig := &e.Significance
	sig.Macros, sig.Significant = len(res.Macros), len(res.Significant)
	sig.Truncated = len(res.Macros) > explainVerdictCap
	for _, c := range res.Macros[:min(len(res.Macros), explainVerdictCap)] {
		sig.Verdicts = append(sig.Verdicts, ExplainVerdict{
			Cluster: uint64(c.ID), Severity: float64(c.Severity()), Significant: c.Significant(res.Bound),
		})
	}
}

// Canonical returns a deep copy with every run-unique field normalized: all
// timings zeroed, and verdict cluster IDs replaced by their output ordinal
// (macro-clusters born in integration draw fresh IDs from the shared
// generator each run, so the raw IDs are unique per run by design). The
// result's JSON is byte-identical across two runs of the same query over
// the same state — the determinism golden test asserts exactly this.
//
//atyplint:deterministic
func (e *Explain) Canonical() *Explain {
	if e == nil {
		return nil
	}
	out := *e
	out.ElapsedNS = 0
	out.Stages = make([]ExplainStage, len(e.Stages))
	for i, st := range e.Stages {
		st.DurationNS = 0
		out.Stages[i] = st
	}
	out.Significance.Verdicts = make([]ExplainVerdict, len(e.Significance.Verdicts))
	for i, v := range e.Significance.Verdicts {
		v.Cluster = uint64(i)
		out.Significance.Verdicts[i] = v
	}
	// Remaining slices are immutable after the run; sharing them keeps
	// Canonical cheap.
	return &out
}

// JSON marshals the record, indented, with a trailing newline.
func (e *Explain) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Text renders the record as the human-readable table cmd/atypquery
// -explain prints.
func (e *Explain) Text() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN %s\n", e.Strategy)
	fmt.Fprintf(&b, "  query        %d regions, %d sensors, windows [%d, %d) (%d windows), δs=%g\n",
		e.Query.Regions, e.Query.Sensors, e.Query.FromWindow, e.Query.ToWindow, e.Query.Windows, e.Query.DeltaS)
	fmt.Fprintf(&b, "  bound        δs·length(T)·N = %g · %d · %d = %.3f severity-min\n",
		e.Threshold.DeltaS, e.Threshold.LengthT, e.Threshold.Sensors, e.Threshold.Bound)
	if e.Threshold.DayBound != nil {
		fmt.Fprintf(&b, "  day bound    %.3f (Pru prunes micro-clusters below this at day scale)\n", *e.Threshold.DayBound)
	}
	fmt.Fprintf(&b, "  candidates   %d scanned, %d pruned, %d integrated\n",
		e.Candidates.Scanned, e.Candidates.Pruned, e.Candidates.Kept)
	if e.RedZones != nil {
		fmt.Fprintf(&b, "  red zones    %d regions pass the bound: %v", e.RedZones.Count, e.RedZones.Regions)
		if e.RedZones.Truncated {
			fmt.Fprintf(&b, " (+%d more)", e.RedZones.Count-len(e.RedZones.Regions))
		}
		b.WriteByte('\n')
	}
	if e.Scatter != nil {
		fmt.Fprintf(&b, "  scatter      %d shards:", e.Scatter.Shards)
		for _, s := range e.Scatter.PerShard {
			fmt.Fprintf(&b, " %s=%d", s.Name, s.Micros)
		}
		if e.Scatter.Partial {
			fmt.Fprintf(&b, " (PARTIAL; failed: %v)", e.Scatter.Failed)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  forest       version %d\n", e.Forest.Version)
	fmt.Fprintf(&b, "  merge tree   serial pairwise scan: %d inputs → %d macros\n",
		e.MergeTree.Inputs, e.MergeTree.Macros)
	fmt.Fprintf(&b, "  significance %d of %d macros pass bound %.3f\n",
		e.Significance.Significant, e.Significance.Macros, e.Significance.Bound)
	for _, v := range e.Significance.Verdicts {
		mark := "  ✗"
		if v.Significant {
			mark = "  ✓"
		}
		fmt.Fprintf(&b, "  %s cluster %-8d severity %10.3f\n", mark, v.Cluster, v.Severity)
	}
	if e.Significance.Truncated {
		fmt.Fprintf(&b, "    … %d more verdicts elided\n", e.Significance.Macros-len(e.Significance.Verdicts))
	}
	fmt.Fprintf(&b, "  stages      ")
	for _, st := range e.Stages {
		fmt.Fprintf(&b, " %s %s (%d→%d)", st.Name, time.Duration(st.DurationNS).Round(time.Microsecond), st.In, st.Out)
	}
	fmt.Fprintf(&b, "\n  elapsed      %s\n", time.Duration(e.ElapsedNS).Round(time.Microsecond))
	return b.String()
}
