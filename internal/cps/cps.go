// Package cps defines the core data model shared by every subsystem:
// sensors, discrete time windows, atypical records and record sets.
//
// The model follows Section II of Tang et al., "Multidimensional Analysis of
// Atypical Events in Cyber-Physical Data" (ICDE 2012): a CPS dataset is a set
// of records (s, t, f(s, t)) where the severity measure f(s, t) is a numeric
// value collected from sensor s during time window t. The default severity
// measure is the atypical duration in minutes, as in the paper.
package cps

import (
	"fmt"
	"math"
	"time"
)

// SensorID identifies a physical sensor. IDs are dense small integers
// assigned by the road-network (or other topology) substrate.
type SensorID uint32

// Window identifies a discrete time window. Windows are consecutive integers
// counting fixed-width intervals from a deployment origin; Window arithmetic
// is therefore plain integer arithmetic. The width and origin live in a
// WindowSpec so that different deployments can use different granularities.
type Window int64

// WindowSpec maps Window indices to wall-clock intervals.
type WindowSpec struct {
	// Origin is the start instant of Window 0.
	Origin time.Time
	// Width is the duration of each window. The paper (and PeMS) use 5
	// minutes.
	Width time.Duration
}

// DefaultWindowWidth is the window granularity used by PeMS and throughout
// the paper's examples (e.g., "s1, 8:05am-8:10am, 4 mins").
const DefaultWindowWidth = 5 * time.Minute

// DefaultSpec returns the window spec used by the synthetic deployment:
// 5-minute windows with a fixed UTC origin, so datasets generated in
// different runs are directly comparable.
func DefaultSpec() WindowSpec {
	return WindowSpec{
		Origin: time.Date(2008, time.October, 1, 0, 0, 0, 0, time.UTC),
		Width:  DefaultWindowWidth,
	}
}

// Start returns the start instant of window w.
func (ws WindowSpec) Start(w Window) time.Time {
	return ws.Origin.Add(time.Duration(w) * ws.Width)
}

// End returns the end instant of window w (exclusive).
func (ws WindowSpec) End(w Window) time.Time {
	return ws.Origin.Add(time.Duration(w+1) * ws.Width)
}

// At returns the window containing instant t. Instants before the origin map
// to negative windows.
func (ws WindowSpec) At(t time.Time) Window {
	d := t.Sub(ws.Origin)
	if d < 0 {
		// Floor division for negative offsets.
		return Window((d - (ws.Width - 1)) / ws.Width)
	}
	return Window(d / ws.Width)
}

// PerDay returns the number of windows in one day.
func (ws WindowSpec) PerDay() int {
	return int(24 * time.Hour / ws.Width)
}

// Format renders a window as a human-readable interval, e.g.
// "2008-10-01 08:05-08:10".
func (ws WindowSpec) Format(w Window) string {
	s, e := ws.Start(w), ws.End(w)
	return fmt.Sprintf("%s %s-%s", s.Format("2006-01-02"), s.Format("15:04"), e.Format("15:04"))
}

// Severity is the paper's severity measure f(s, t). The default unit is
// minutes of atypical duration inside the window, but any positive
// domain-specific measure works (Section II-A).
type Severity float64

// Valid reports whether s is finite and positive: zero, negative, NaN and
// ±Inf all fail. Every record and feature entry that enters the system must
// pass it; cluster integration's exact skips rest on it (Properties 2–3).
func (s Severity) Valid() bool { return s > 0 && s <= math.MaxFloat64 }

// Record is one atypical record (s, t, f(s, t)).
type Record struct {
	Sensor   SensorID
	Window   Window
	Severity Severity
}

// Less orders records by (Window, Sensor), the canonical on-disk and
// in-memory order: time-major so that streaming consumers see records in
// arrival order.
func (r Record) Less(o Record) bool {
	if r.Window != o.Window {
		return r.Window < o.Window
	}
	return r.Sensor < o.Sensor
}

// String implements fmt.Stringer for debugging output.
func (r Record) String() string {
	return fmt.Sprintf("(s%d, w%d, %.1f)", r.Sensor, r.Window, float64(r.Severity))
}

// Reading is a raw (pre-detection) sensor reading. The generator produces
// readings; the detect package turns the atypical ones into Records. Value is
// domain-specific (vehicle speed in mph for the traffic deployment).
type Reading struct {
	Sensor SensorID
	Window Window
	Value  float64
}

// TimeRange is a half-open window interval [From, To).
type TimeRange struct {
	From, To Window
}

// Contains reports whether w falls inside the range.
func (tr TimeRange) Contains(w Window) bool { return w >= tr.From && w < tr.To }

// Len returns the number of windows in the range.
func (tr TimeRange) Len() int {
	if tr.To <= tr.From {
		return 0
	}
	return int(tr.To - tr.From)
}

// Intersect returns the overlap of two ranges (possibly empty).
func (tr TimeRange) Intersect(o TimeRange) TimeRange {
	out := TimeRange{From: maxWindow(tr.From, o.From), To: minWindow(tr.To, o.To)}
	if out.To < out.From {
		out.To = out.From
	}
	return out
}

// Days converts the range length to whole days under spec ws, rounding up.
func (tr TimeRange) Days(ws WindowSpec) int {
	perDay := ws.PerDay()
	return (tr.Len() + perDay - 1) / perDay
}

func maxWindow(a, b Window) Window {
	if a > b {
		return a
	}
	return b
}

func minWindow(a, b Window) Window {
	if a < b {
		return a
	}
	return b
}

// DayRange returns the time range covering whole days [firstDay, firstDay+n)
// counted from the spec origin.
func DayRange(ws WindowSpec, firstDay, n int) TimeRange {
	perDay := Window(ws.PerDay())
	return TimeRange{From: Window(firstDay) * perDay, To: Window(firstDay+n) * perDay}
}
