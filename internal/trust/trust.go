// Package trust implements the trustworthiness-analysis extension the paper
// names as future work (Section VII), following the corroboration idea of
// the authors' Tru-Alarm line of work ([17], [18]): an atypical reading is
// credible when the physical process it reports — congestion, intrusion —
// must also be visible to nearby sensors at nearby times. Sensors whose
// alarms are persistently uncorroborated are likely faulty, and their
// records can be filtered before event extraction.
package trust

import (
	"errors"
	"fmt"
	"sort"

	"github.com/cpskit/atypical/internal/cps"
)

// ErrConfig is the sentinel every configuration rejection wraps, so callers
// can errors.Is-classify a bad Config without string matching.
var ErrConfig = errors.New("trust: invalid configuration")

// Score is one sensor's trustworthiness assessment.
type Score struct {
	Sensor cps.SensorID
	// Records is the number of atypical records the sensor reported.
	Records int
	// Corroborated is how many of them had a δd/δt-neighboring atypical
	// record from a different sensor.
	Corroborated int
	// Trust is the smoothed corroboration rate in (0, 1).
	Trust float64
}

// Config parameterizes the analysis.
type Config struct {
	// Neighbors lists, per sensor, the sensors strictly within δd.
	Neighbors [][]cps.SensorID
	// MaxGap is the largest corroborating window distance
	// (cluster.MaxWindowGap(δt, width)).
	MaxGap int
	// Prior weights the Laplace smoothing: a sensor with no records gets
	// trust Prior/(Prior+1). Default 1.
	Prior float64
}

// Analyzer scores sensors over atypical record sets.
type Analyzer struct {
	cfg Config
}

// New validates cfg and returns an analyzer.
func New(cfg Config) (*Analyzer, error) {
	if cfg.MaxGap < 0 {
		return nil, fmt.Errorf("%w: MaxGap must be non-negative, got %d", ErrConfig, cfg.MaxGap)
	}
	if cfg.Prior < 0 {
		return nil, fmt.Errorf("%w: Prior must be non-negative, got %v", ErrConfig, cfg.Prior)
	}
	if cfg.Prior == 0 {
		cfg.Prior = 1
	}
	return &Analyzer{cfg: cfg}, nil
}

// Scores computes per-sensor trust over a canonical record slice. Sensors
// with no records are omitted. Results are ascending by sensor.
func (a *Analyzer) Scores(recs []cps.Record) []Score {
	present := make(map[recordKey]struct{}, len(recs))
	for _, r := range recs {
		present[recordKey{r.Window, r.Sensor}] = struct{}{}
	}
	perSensor := make(map[cps.SensorID]*Score)
	for _, r := range recs {
		s := perSensor[r.Sensor]
		if s == nil {
			s = &Score{Sensor: r.Sensor}
			perSensor[r.Sensor] = s
		}
		s.Records++
		if a.corroborated(present, r) {
			s.Corroborated++
		}
	}
	out := make([]Score, 0, len(perSensor))
	for _, s := range perSensor {
		s.Trust = (float64(s.Corroborated) + a.cfg.Prior) / (float64(s.Records) + a.cfg.Prior + 1)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sensor < out[j].Sensor })
	return out
}

// recordKey is a record's canonical (window, sensor) key.
type recordKey struct {
	w cps.Window
	s cps.SensorID
}

// corroborated reports whether some *other* sensor within δd was atypical
// within δt of r.
func (a *Analyzer) corroborated(present map[recordKey]struct{}, r cps.Record) bool {
	if int(r.Sensor) >= len(a.cfg.Neighbors) {
		return false
	}
	for gap := -a.cfg.MaxGap; gap <= a.cfg.MaxGap; gap++ {
		w := r.Window + cps.Window(gap)
		for _, nb := range a.cfg.Neighbors[r.Sensor] {
			if _, ok := present[recordKey{w, nb}]; ok {
				return true
			}
		}
	}
	return false
}

// TrustMap returns sensor → trust from a score slice.
func TrustMap(scores []Score) map[cps.SensorID]float64 {
	out := make(map[cps.SensorID]float64, len(scores))
	for _, s := range scores {
		out[s.Sensor] = s.Trust
	}
	return out
}

// Filter returns the records whose sensor's trust reaches minTrust,
// preserving canonical order. Records from unscored sensors are kept (no
// evidence against them).
func Filter(recs []cps.Record, scores []Score, minTrust float64) []cps.Record {
	tm := TrustMap(scores)
	out := make([]cps.Record, 0, len(recs))
	for _, r := range recs {
		if t, ok := tm[r.Sensor]; ok && t < minTrust {
			continue
		}
		out = append(out, r)
	}
	return out
}

// LeastTrusted returns up to k scores with the lowest trust, ascending by
// trust (ties by sensor id) — the maintenance work list.
func LeastTrusted(scores []Score, k int) []Score {
	sorted := make([]Score, len(scores))
	copy(sorted, scores)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Trust < sorted[j].Trust {
			return true
		}
		if sorted[i].Trust > sorted[j].Trust {
			return false
		}
		return sorted[i].Sensor < sorted[j].Sensor
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}
