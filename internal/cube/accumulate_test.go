package cube

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/geo"
)

// accumulateSortReference is accumulate as it was before the counting
// scatter: both triple sets stable-sorted by (region, key) from input order,
// then folded cell by cell.
func accumulateSortReference(x *SeverityIndex, recs []cps.Record) severityColumns {
	perDay := int64(x.spec.PerDay())
	winTriples := make([]cellTriple, 0, len(recs))
	dayTriples := make([]cellTriple, 0, len(recs))
	for _, r := range recs {
		region := x.net.Sensor(r.Sensor).Region
		if region == geo.NoRegion {
			continue
		}
		winTriples = append(winTriples, cellTriple{region: region, key: int64(r.Window), sev: r.Severity})
		dayTriples = append(dayTriples, cellTriple{region: region, key: int64(r.Window) / perDay, sev: r.Severity})
	}
	byRegionKey := func(ts []cellTriple) func(i, j int) bool {
		return func(i, j int) bool {
			if ts[i].region != ts[j].region {
				return ts[i].region < ts[j].region
			}
			return ts[i].key < ts[j].key
		}
	}
	var c severityColumns
	sort.SliceStable(winTriples, byRegionKey(winTriples))
	for i := 0; i < len(winTriples); {
		j := i + 1
		sum := winTriples[i].sev
		for j < len(winTriples) && winTriples[j].region == winTriples[i].region && winTriples[j].key == winTriples[i].key {
			sum += winTriples[j].sev
			j++
		}
		c.winRegion = append(c.winRegion, winTriples[i].region)
		c.winKey = append(c.winKey, cps.Window(winTriples[i].key))
		c.winSev = append(c.winSev, sum)
		i = j
	}
	sort.SliceStable(dayTriples, byRegionKey(dayTriples))
	for i := 0; i < len(dayTriples); {
		j := i + 1
		sum := dayTriples[i].sev
		for j < len(dayTriples) && dayTriples[j].region == dayTriples[i].region && dayTriples[j].key == dayTriples[i].key {
			sum += dayTriples[j].sev
			j++
		}
		c.dayRegion = append(c.dayRegion, dayTriples[i].region)
		c.dayKey = append(c.dayKey, dayTriples[i].key)
		c.daySev = append(c.daySev, sum)
		i = j
	}
	return c
}

// sevBits maps severities to their IEEE bits, so comparisons see every
// rounding difference.
func sevBits(s []cps.Severity) []uint64 {
	out := make([]uint64, len(s))
	for i, v := range s {
		out[i] = math.Float64bits(float64(v))
	}
	return out
}

// columnsDiff names the first column in which got and want differ.
func columnsDiff(got, want severityColumns) error {
	switch {
	case !slices.Equal(got.dayRegion, want.dayRegion):
		return fmt.Errorf("day regions differ")
	case !slices.Equal(got.dayKey, want.dayKey):
		return fmt.Errorf("day keys differ")
	case !slices.Equal(sevBits(got.daySev), sevBits(want.daySev)):
		return fmt.Errorf("day severity bits differ")
	case !slices.Equal(got.winRegion, want.winRegion):
		return fmt.Errorf("window regions differ")
	case !slices.Equal(got.winKey, want.winKey):
		return fmt.Errorf("window keys differ")
	case !slices.Equal(sevBits(got.winSev), sevBits(want.winSev)):
		return fmt.Errorf("window severity bits differ")
	}
	return nil
}

// TestAccumulateMatchesSortReference pins the counting scatter, and the
// stable-sort fallback for batches whose windows descend, to the sorting
// accumulate bit for bit. Severities are multiples of 0.1, so a change in
// any cell's summation order shows in the low bits.
func TestAccumulateMatchesSortReference(t *testing.T) {
	net := testNet(t)
	x := NewSeverityIndex(net, cps.DefaultSpec())
	perDay := cps.Window(x.spec.PerDay())
	rng := rand.New(rand.NewSource(23))
	canonical := randomRecords(net, 20000, 3, 4)
	for i := range canonical {
		canonical[i].Severity = cps.Severity(float64(rng.Intn(40)+1) * 0.1)
	}
	// Two days before the origin: negative windows and days.
	negative := slices.Clone(canonical)
	for i := range negative {
		negative[i].Window -= 2 * perDay
	}
	shuffled := slices.Clone(canonical)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// The later half of a canonical batch handed over first: one descent.
	split := len(canonical) / 2
	halvesSwapped := append(slices.Clone(canonical[split:]), canonical[:split]...)

	cases := []struct {
		name string
		recs []cps.Record
	}{
		{"empty", nil},
		{"canonical", canonical},
		{"negative windows", negative},
		{"shuffled", shuffled},
		{"halves swapped", halvesSwapped},
	}
	for _, tc := range cases {
		if err := columnsDiff(x.accumulate(tc.recs), accumulateSortReference(x, tc.recs)); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
