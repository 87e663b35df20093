// Package cluster implements the paper's primary contribution: atypical
// events (Definitions 1–3), atypical micro-clusters (Definition 4,
// Algorithm 1), feature-based cluster similarity (Equations 2–4), cluster
// merging (Algorithm 2) and cluster integration into macro-clusters
// (Algorithm 3).
package cluster

import (
	"cmp"
	"slices"
	"sort"

	"github.com/cpskit/atypical/internal/cps"
)

// Key constrains feature keys: sensors for spatial features, windows for
// temporal features.
type Key interface {
	~uint32 | ~int64
}

// Entry is one ⟨key, aggregated severity⟩ pair of a feature.
type Entry[K Key] struct {
	Key K
	Sev cps.Severity
}

// Feature is a sparse severity vector: entries sorted by key, keys unique,
// severities positive. The spatial feature SF of Definition 4 is a
// Feature[cps.SensorID] (μ values); the temporal feature TF is a
// Feature[cps.Window] (ν values).
//
// Features are algebraic (paper Property 2): merging two features is an
// O(m1+m2) sorted merge-join that sums severities on common keys and copies
// the rest — no recourse to the underlying records.
type Feature[K Key] []Entry[K]

// SpatialFeature is the per-sensor severity summary of a cluster.
type SpatialFeature = Feature[cps.SensorID]

// TemporalFeature is the per-window severity summary of a cluster.
type TemporalFeature = Feature[cps.Window]

// NewFeature builds a canonical feature from arbitrary entries, sorting and
// coalescing duplicates by summation.
func NewFeature[K Key](entries []Entry[K]) Feature[K] {
	f := make(Feature[K], len(entries))
	copy(f, entries)
	// slices.SortFunc and sort.Slice instantiate the same pdqsort, so equal
	// keys coalesce in the same order either way (FuzzNewFeatureOrder).
	slices.SortFunc(f, func(a, b Entry[K]) int { return cmp.Compare(a.Key, b.Key) })
	return coalesce(f)
}

// coalesce sums runs of equal keys in place, in slice order, and returns the
// shortened slice.
func coalesce[K Key](f Feature[K]) Feature[K] {
	out := f[:0]
	for _, e := range f {
		if n := len(out); n > 0 && out[n-1].Key == e.Key {
			out[n-1].Sev += e.Sev
			continue
		}
		out = append(out, e)
	}
	return out
}

// Total returns the summed severity of the feature.
func (f Feature[K]) Total() cps.Severity {
	var t cps.Severity
	for _, e := range f {
		t += e.Sev
	}
	return t
}

// Get returns the severity aggregated on key, or zero when absent.
func (f Feature[K]) Get(key K) cps.Severity {
	i := sort.Search(len(f), func(i int) bool { return f[i].Key >= key })
	if i < len(f) && f[i].Key == key {
		return f[i].Sev
	}
	return 0
}

// Keys returns the feature's keys in ascending order.
func (f Feature[K]) Keys() []K {
	out := make([]K, len(f))
	for i, e := range f {
		out[i] = e.Key
	}
	return out
}

// Clone returns an independent copy.
func (f Feature[K]) Clone() Feature[K] {
	out := make(Feature[K], len(f))
	copy(out, f)
	return out
}

// MergeFeature implements the feature half of Algorithm 2 / Equations 5–6:
// severities of common keys accumulate, non-overlapping entries carry over.
// Both inputs stay untouched.
func MergeFeature[K Key](a, b Feature[K]) Feature[K] {
	out := make(Feature[K], 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			out = append(out, a[i])
			i++
		case b[j].Key < a[i].Key:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Entry[K]{Key: a[i].Key, Sev: a[i].Sev + b[j].Sev})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// OverlapFractions returns (p1, p2): the severity share of the keys common
// to both features, measured over each feature's own total — the two inputs
// of the balance function g in Equations 3–4. Empty features yield zero
// shares.
func OverlapFractions[K Key](a, b Feature[K]) (p1, p2 float64) {
	return overlapFractions(a, b, a.Total(), b.Total())
}

// overlapFractions is OverlapFractions with the features' totals supplied,
// so similarity can reuse totals cached on the cluster. When one feature is
// more than overlapRatio times longer than the other, each key of the short
// one is binary-searched in the rest of the long one instead of walking the
// long one entry by entry. Either way the common keys are visited in
// ascending order, so the sums are bit-identical.
func overlapFractions[K Key](a, b Feature[K], totalA, totalB cps.Severity) (p1, p2 float64) {
	var common1, common2 cps.Severity
	switch {
	case len(a) > overlapRatio*len(b):
		common2, common1 = commonBySearch(b, a)
	case len(b) > overlapRatio*len(a):
		common1, common2 = commonBySearch(a, b)
	default:
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].Key < b[j].Key:
				i++
			case b[j].Key < a[i].Key:
				j++
			default:
				common1 += a[i].Sev
				common2 += b[j].Sev
				i++
				j++
			}
		}
	}
	if totalA > 0 {
		p1 = float64(common1 / totalA)
	}
	if totalB > 0 {
		p2 = float64(common2 / totalB)
	}
	return p1, p2
}

// overlapRatio is the length ratio past which overlapFractions searches the
// longer feature instead of merge-joining it.
const overlapRatio = 8

// commonBySearch sums the severities of the keys common to short and long,
// in ascending key order, binary-searching each key of short in the part of
// long past the previous match.
func commonBySearch[K Key](short, long Feature[K]) (inShort, inLong cps.Severity) {
	j := 0
	for _, e := range short {
		lo, hi := j, len(long)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if long[m].Key < e.Key {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(long) {
			break
		}
		j = lo
		if long[j].Key == e.Key {
			inShort += e.Sev
			inLong += long[j].Sev
			j++
		}
	}
	return inShort, inLong
}

// CommonKeyCount returns the number of keys shared by both features.
func CommonKeyCount[K Key](a, b Feature[K]) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			i++
		case b[j].Key < a[i].Key:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// valid reports whether the feature satisfies its invariants (sorted unique
// keys, positive severities). Used by tests and storage decoding.
func (f Feature[K]) valid() bool {
	for i, e := range f {
		if e.Sev <= 0 {
			return false
		}
		if i > 0 && f[i-1].Key >= e.Key {
			return false
		}
	}
	return true
}

// Valid exposes invariant checking for other packages (storage, tests).
func (f Feature[K]) Valid() bool { return f.valid() }
