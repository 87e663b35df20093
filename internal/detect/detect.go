// Package detect turns raw sensor readings into atypical records.
//
// The paper assumes "the atypical criteria is given and clean and trustworthy
// atypical records can be retrieved by CPS" (Section II-A), citing prior
// work for the selection step. This package supplies that step for the
// synthetic traffic deployment so the pre-processing scan (the PR curve of
// Fig. 15) has a real code path: a reading is atypical when the measured
// speed falls below a threshold, and the severity — atypical duration within
// the window — is derived from how far below it falls.
package detect

import (
	"github.com/cpskit/atypical/internal/cps"
)

// Speed-model constants shared with the workload generator. The generator
// encodes an intended severity m (minutes of the 5-minute window spent
// congested) as speed = ThresholdMPH - SevSlopeMPH·m, so detection recovers
// the injected severity exactly.
const (
	// FreeflowMPH is the uncongested cruising speed.
	FreeflowMPH = 65.0
	// ThresholdMPH is the atypical criterion: readings below it are
	// congested.
	ThresholdMPH = 55.0
	// SevSlopeMPH converts severity minutes to a speed drop.
	SevSlopeMPH = 10.0
	// MaxSeverityMinutes caps the per-window severity at the window width.
	MaxSeverityMinutes = 5.0
)

// SeverityFromSpeed maps a speed reading to an atypical severity in minutes.
// Readings at or above the threshold, and NaN readings, yield zero.
func SeverityFromSpeed(mph float64) cps.Severity {
	if !(mph < ThresholdMPH) {
		return 0
	}
	sev := (ThresholdMPH - mph) / SevSlopeMPH
	if sev > MaxSeverityMinutes {
		sev = MaxSeverityMinutes
	}
	return cps.Severity(sev)
}

// SpeedFromSeverity is the generator-side inverse of SeverityFromSpeed.
func SpeedFromSeverity(sev cps.Severity) float64 {
	if sev <= 0 {
		return FreeflowMPH
	}
	if sev > MaxSeverityMinutes {
		sev = MaxSeverityMinutes
	}
	return ThresholdMPH - SevSlopeMPH*float64(sev)
}

// Detector selects atypical records from a reading stream.
type Detector struct {
	// Threshold overrides ThresholdMPH when non-zero.
	Threshold float64

	records []cps.Record
	// scanned counts every reading seen, atypical or not; this is the I/O
	// the PR curve in Fig. 15 measures.
	scanned int64
}

// Observe consumes one reading, retaining it if atypical. A NaN reading is
// not atypical: no comparison with it holds, so it yields no record rather
// than a NaN severity.
func (d *Detector) Observe(r cps.Reading) {
	d.scanned++
	th := d.Threshold
	if th == 0 {
		th = ThresholdMPH
	}
	sev := (th - r.Value) / SevSlopeMPH
	if !(sev > 0) {
		return // at or above the threshold, NaN, or below it by an underflowing margin
	}
	if sev > MaxSeverityMinutes {
		sev = MaxSeverityMinutes
	}
	d.records = append(d.records, cps.Record{Sensor: r.Sensor, Window: r.Window, Severity: cps.Severity(sev)})
}

// Scanned returns the number of readings observed so far.
func (d *Detector) Scanned() int64 { return d.scanned }

// Result returns the atypical records collected so far as a canonical set
// and resets the detector for reuse.
func (d *Detector) Result() *cps.RecordSet {
	rs := cps.NewRecordSet(d.records)
	d.records = nil
	d.scanned = 0
	return rs
}

// Scan runs the detector over a full reading stream and returns the atypical
// record set plus the number of readings scanned.
func Scan(stream func(fn func(cps.Reading))) (*cps.RecordSet, int64) {
	var d Detector
	stream(d.Observe)
	n := d.scanned
	return d.Result(), n
}
