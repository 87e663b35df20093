package detect

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/cpskit/atypical/internal/cps"
)

func TestSeveritySpeedRoundTrip(t *testing.T) {
	for _, sev := range []cps.Severity{0.5, 1, 2.5, 4, 5} {
		got := SeverityFromSpeed(SpeedFromSeverity(sev))
		if math.Abs(float64(got-sev)) > 1e-9 {
			t.Errorf("round trip %v -> %v", sev, got)
		}
	}
}

func TestSeverityFromSpeedBounds(t *testing.T) {
	if SeverityFromSpeed(ThresholdMPH) != 0 {
		t.Error("threshold speed should not be atypical")
	}
	if SeverityFromSpeed(FreeflowMPH) != 0 {
		t.Error("freeflow should not be atypical")
	}
	if got := SeverityFromSpeed(-10); got != MaxSeverityMinutes {
		t.Errorf("deep congestion severity = %v, want cap %v", got, MaxSeverityMinutes)
	}
	if got := SpeedFromSeverity(0); got != FreeflowMPH {
		t.Errorf("zero severity speed = %v", got)
	}
	if got := SpeedFromSeverity(99); got != ThresholdMPH-SevSlopeMPH*MaxSeverityMinutes {
		t.Errorf("over-cap severity speed = %v", got)
	}
}

func TestSeverityMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		va := float64(a) / 4 // speeds 0..64
		vb := float64(b) / 4
		if va > vb {
			va, vb = vb, va
		}
		return SeverityFromSpeed(va) >= SeverityFromSpeed(vb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDetectorObserve(t *testing.T) {
	var d Detector
	d.Observe(cps.Reading{Sensor: 1, Window: 10, Value: 65}) // normal
	d.Observe(cps.Reading{Sensor: 2, Window: 10, Value: 45}) // atypical, sev 1
	d.Observe(cps.Reading{Sensor: 3, Window: 11, Value: 5})  // atypical, sev 5
	if d.Scanned() != 3 {
		t.Errorf("Scanned = %d", d.Scanned())
	}
	rs := d.Result()
	if rs.Len() != 2 {
		t.Fatalf("records = %d, want 2", rs.Len())
	}
	recs := rs.Records()
	if recs[0].Severity != 1 || recs[1].Severity != 5 {
		t.Errorf("severities = %v, %v", recs[0].Severity, recs[1].Severity)
	}
	// Result resets the detector.
	if d.Scanned() != 0 || d.Result().Len() != 0 {
		t.Error("Result should reset the detector")
	}
}

// A NaN reading compares false against every threshold; it is not
// atypical, so it yields no record (it used to yield a NaN severity).
// Infinite readings are free flow and the severity cap.
func TestDetectorNonFiniteReadings(t *testing.T) {
	for _, th := range []float64{0, 30} {
		d := Detector{Threshold: th}
		d.Observe(cps.Reading{Sensor: 1, Window: 0, Value: math.NaN()})
		d.Observe(cps.Reading{Sensor: 2, Window: 0, Value: math.Inf(1)})
		d.Observe(cps.Reading{Sensor: 3, Window: 0, Value: math.Inf(-1)})
		recs := d.Result().Records()
		if len(recs) != 1 || recs[0].Sensor != 3 || recs[0].Severity != MaxSeverityMinutes {
			t.Errorf("threshold %v: records %v, want only sensor 3 at the cap", th, recs)
		}
	}
	if got := SeverityFromSpeed(math.NaN()); got != 0 {
		t.Errorf("SeverityFromSpeed(NaN) = %v, want 0", got)
	}
}

func TestDetectorCustomThreshold(t *testing.T) {
	d := Detector{Threshold: 30}
	d.Observe(cps.Reading{Sensor: 1, Window: 0, Value: 45}) // normal under custom threshold
	d.Observe(cps.Reading{Sensor: 2, Window: 0, Value: 20}) // sev 1 under custom threshold
	rs := d.Result()
	if rs.Len() != 1 {
		t.Fatalf("records = %d, want 1", rs.Len())
	}
	if got := rs.Records()[0].Severity; got != 1 {
		t.Errorf("severity = %v, want 1", got)
	}
}

func TestScan(t *testing.T) {
	stream := func(fn func(cps.Reading)) {
		for w := cps.Window(0); w < 4; w++ {
			fn(cps.Reading{Sensor: 0, Window: w, Value: 65})
			fn(cps.Reading{Sensor: 1, Window: w, Value: 25})
		}
	}
	rs, n := Scan(stream)
	if n != 8 {
		t.Errorf("scanned = %d", n)
	}
	if rs.Len() != 4 {
		t.Errorf("atypical = %d", rs.Len())
	}
	if rs.TotalSeverity() != 12 { // 4 windows x sev 3
		t.Errorf("total severity = %v", rs.TotalSeverity())
	}
}
