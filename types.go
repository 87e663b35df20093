package atypical

import (
	"fmt"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/traffic"
)

// Re-exported core types: the implementation lives in internal packages; the
// aliases below are the public surface downstream code imports.

// SensorID identifies a physical sensor.
type SensorID = cps.SensorID

// Window is a discrete time window index.
type Window = cps.Window

// WindowSpec maps window indices to wall-clock intervals.
type WindowSpec = cps.WindowSpec

// Severity is the severity measure f(s, t) — atypical minutes by default.
type Severity = cps.Severity

// Record is one atypical record (sensor, window, severity).
type Record = cps.Record

// Reading is one raw (pre-detection) sensor reading.
type Reading = cps.Reading

// RecordSet is a canonical collection of atypical records.
type RecordSet = cps.RecordSet

// TimeRange is a half-open window interval.
type TimeRange = cps.TimeRange

// NewRecordSet builds a canonical record set from arbitrary records.
func NewRecordSet(recs []Record) *RecordSet { return cps.NewRecordSet(recs) }

// DayRange returns the window range covering whole days.
func DayRange(ws WindowSpec, firstDay, n int) TimeRange { return cps.DayRange(ws, firstDay, n) }

// Cluster is an atypical cluster: ⟨ID, spatial feature, temporal feature⟩.
type Cluster = cluster.Cluster

// Balance is the similarity balance function g.
type Balance = cluster.Balance

// Similarity computes the paper's Equation 2 cluster similarity.
func Similarity(a, b *Cluster, g Balance) float64 { return cluster.Similarity(a, b, g) }

// Point is a geographic coordinate.
type Point = geo.Point

// BBox is a geographic bounding box.
type BBox = geo.BBox

// RegionID identifies a pre-defined spatial region.
type RegionID = geo.RegionID

// Network is the sensor deployment topology.
type Network = traffic.Network

// Sensor is one physical detector.
type Sensor = traffic.Sensor

// Dataset is one generated month of workload with ground truth.
type Dataset = gen.Dataset

// Event is one injected ground-truth event.
type Event = gen.Event

// Query is an analytical query Q(W, T).
type Query = query.Query

// MicroClusterFromRecords summarizes a set of atypical records into a
// micro-cluster (Definition 4) outside a System pipeline — useful for
// ad-hoc similarity computations and tests. The cluster gets ID 0; clusters
// produced by a System carry unique IDs.
func MicroClusterFromRecords(recs []Record) *Cluster {
	return cluster.FromRecords(0, recs)
}

// Balance functions for Similarity, in the paper's Fig. 21 order.
const (
	BalanceMin        = cluster.Min
	BalanceHarmonic   = cluster.Harmonic
	BalanceGeometric  = cluster.Geometric
	BalanceArithmetic = cluster.Arithmetic
	BalanceMax        = cluster.Max
)

// ParseBalance maps a balance function's name ("min", "harmonic",
// "geometric", "arithmetic", "max") to its constant — the bridge from
// command-line flags and config files to the typed WithBalance option.
func ParseBalance(s string) (Balance, error) { return cluster.ParseBalance(s) }

// ParseStrategy maps a strategy's name ("all", "pru" or "pruned", "gui" or
// "guided") to its constant — the bridge from command-line flags and query
// parameters to QueryRequest.Strategy. Any other name, the empty one
// included, returns an error wrapping ErrInvalidRequest; callers with a
// default substitute it before parsing.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "all":
		return IntegrateAll, nil
	case "pru", "pruned":
		return Pruned, nil
	case "gui", "guided":
		return Guided, nil
	default:
		return 0, fmt.Errorf("%w: unknown strategy %q (want all, pru or gui)", ErrInvalidRequest, s)
	}
}
