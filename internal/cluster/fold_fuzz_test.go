package cluster

// Bit-exactness fuzz targets for the two places the integration kernel
// orders severities before summing them: NewFeature's coalescing sort and
// FoldTemporal's period-of-day fold. Both compare against a straightforward
// reference bit for bit; severities are multiples of 0.1, so any change in
// summation order shows in the low bits.

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/cpskit/atypical/internal/cps"
)

// coalesceReference sums runs of equal keys in slice order.
func coalesceReference[K Key](f Feature[K]) Feature[K] {
	var out Feature[K]
	for _, e := range f {
		if n := len(out); n > 0 && out[n-1].Key == e.Key {
			out[n-1].Sev += e.Sev
			continue
		}
		out = append(out, e)
	}
	return out
}

// foldReference is FoldTemporal by definition: map every window to its
// offset, stable-sort by offset, coalesce.
func foldReference(tf TemporalFeature, period cps.Window) TemporalFeature {
	out := make(TemporalFeature, len(tf))
	for i, e := range tf {
		out[i] = Entry[cps.Window]{Key: ((e.Key % period) + period) % period, Sev: e.Sev}
	}
	slices.SortStableFunc(out, func(a, b Entry[cps.Window]) int { return cmp.Compare(a.Key, b.Key) })
	return coalesceReference(out)
}

// fuzzTemporal decodes fuzz input into a canonical temporal feature and a
// period. Each 4-byte group is (signed day, offset within the day,
// severity); base shifts every window, so features start at negative
// windows and far from zero. Even periodRaw picks a small period (many
// windows share an offset), odd a period up to 2^40 (offsets far sparser
// than the feature's entries).
func fuzzTemporal(data []byte, base int64, periodRaw uint64) (TemporalFeature, cps.Window) {
	period := cps.Window(1 + (periodRaw>>1)%600)
	if periodRaw&1 == 1 {
		period = cps.Window(1 + (periodRaw>>1)%(1<<40))
	}
	base %= 1 << 40
	var entries []Entry[cps.Window]
	for ; len(data) >= 4; data = data[4:] {
		day := cps.Window(int8(data[0]))
		off := cps.Window(binary.LittleEndian.Uint16(data[1:3]))
		if period < 1<<16 {
			off %= period
		}
		entries = append(entries, Entry[cps.Window]{
			Key: cps.Window(base) + day*period + off,
			Sev: cps.Severity(float64(data[3]%32+1) * 0.1),
		})
	}
	return NewFeature(entries), period
}

func FuzzFoldTemporalStable(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 0, 11, 0, 2, 1, 10, 0, 3, 1, 200, 0, 4}, int64(0), uint64(288*2))
	f.Add([]byte{0xff, 250, 0, 5, 0, 3, 0, 6, 0, 251, 0, 7}, int64(-7), uint64(256*2))
	f.Add([]byte{0, 1, 0, 1, 1, 1, 0, 2, 2, 1, 0, 3, 3, 1, 0, 4, 0x80, 1, 0, 5, 0x7f, 1, 0, 6}, int64(-1)<<40, uint64(1<<41|1))
	f.Add([]byte{0, 0, 1, 9, 0, 0, 2, 9, 1, 0, 3, 9, 2, 0, 1, 9, 3, 0, 2, 9}, int64(1)<<39, uint64(12345<<1|1))
	// More than 12 entries (beyond insertion sort) with offsets repeating
	// across days and spread wider than the offset table.
	var spread []byte
	for day := byte(0); day < 4; day++ {
		for i, off := range []uint16{0, 1000, 2000, 3000, 40000} {
			spread = append(spread, day, byte(off), byte(off>>8), day*7+byte(i)*3)
		}
	}
	f.Add(spread, int64(-12345), uint64(1<<20)<<1|1)
	f.Fuzz(func(t *testing.T, data []byte, base int64, periodRaw uint64) {
		tf, period := fuzzTemporal(data, base, periodRaw)
		got, want := FoldTemporal(tf, period), foldReference(tf, period)
		if !featuresExactEq(got, want) {
			t.Fatalf("FoldTemporal(%v, %d)\n got %v\nwant %v", tf, period, got, want)
		}
	})
}

// A small feature folds without allocating in proportion to the period,
// even when its offsets scatter across a 2^40-window period.
func TestFoldTemporalAllocationBound(t *testing.T) {
	const period = cps.Window(1) << 40
	var entries []Entry[cps.Window]
	for i := 0; i < 16; i++ {
		entries = append(entries, Entry[cps.Window]{
			Key: cps.Window(i%4)*period + cps.Window(i)*(period/17) - period,
			Sev: 1,
		})
	}
	tf := NewFeature(entries)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if got := FoldTemporal(tf, period); len(got) == 0 {
			t.Fatal("empty fold")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1<<16 {
		t.Errorf("FoldTemporal allocated %d bytes per run for %d entries", perRun, len(tf))
	}
}

// The fold's running offsets equal floorMod on every window of any
// sequence: ascending runs crossing periods, steps backwards, and windows
// at both ends of int64, where the period start below a window is not
// representable.
func TestOffsetsMatchFloorMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, period := range []cps.Window{1, 7, 288, 1 << 40, math.MaxInt64/3 + 1, math.MaxInt64} {
		var seqs [][]cps.Window
		for _, start := range []cps.Window{math.MinInt64, math.MinInt64 + period/2, -period - 3, -1, 0, period - 1, math.MaxInt64 - 3*period/2, math.MaxInt64 - 5} {
			var up, down []cps.Window
			for i := cps.Window(0); i < 12; i++ {
				step := i * (1 + period/5)
				if w := start + step; w >= start {
					up = append(up, w)
				}
				if w := start - step; w <= start {
					down = append(down, w)
				}
			}
			seqs = append(seqs, up, down)
		}
		jumps := make([]cps.Window, 200)
		for i := range jumps {
			jumps[i] = cps.Window(rng.Uint64())
		}
		seqs = append(seqs, jumps, []cps.Window{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1})
		for _, seq := range seqs {
			offs := offsets{period: period}
			for _, w := range seq {
				if got, want := offs.of(w), floorMod(w, period); got != want {
					t.Fatalf("period %d, window %d: offset %d, floorMod %d", period, w, got, want)
				}
			}
		}
	}
}

// fuzzEntries decodes fuzz input into feature entries with keys drawn from
// a range of keyRange values, so duplicates are the norm.
func fuzzEntries[K Key](data []byte, keyRange uint16, key func(uint16) K) []Entry[K] {
	var out []Entry[K]
	for ; len(data) >= 3; data = data[3:] {
		k := binary.LittleEndian.Uint16(data) % keyRange
		out = append(out, Entry[K]{Key: key(k), Sev: cps.Severity(float64(data[2]%32+1) * 0.1)})
	}
	return out
}

// newFeatureReference is NewFeature as first written: sort.Slice, then
// coalesce.
func newFeatureReference[K Key](entries []Entry[K]) Feature[K] {
	f := make(Feature[K], len(entries))
	copy(f, entries)
	sort.Slice(f, func(i, j int) bool { return f[i].Key < f[j].Key })
	return coalesceReference(f)
}

func FuzzNewFeatureOrder(f *testing.F) {
	long := make([]byte, 0, 3*40)
	for i := 0; i < 40; i++ {
		long = append(long, byte(i*7), 0, byte(i))
	}
	f.Add(long, uint8(3))
	f.Add([]byte{1, 0, 1, 1, 0, 2, 1, 0, 3, 2, 0, 4, 1, 0, 5, 2, 0, 6, 1, 0, 7, 3, 0, 8, 1, 0, 9, 2, 0, 10, 0, 0, 11, 1, 0, 12, 1, 0, 13, 2, 0, 14}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, keyRangeRaw uint8) {
		keyRange := uint16(keyRangeRaw%64) + 1
		sensors := fuzzEntries(data, keyRange, func(k uint16) cps.SensorID {
			return math.MaxUint32 - cps.SensorID(k)
		})
		if got, want := NewFeature(sensors), newFeatureReference(sensors); !featuresExactEq(got, want) {
			t.Fatalf("NewFeature(%v)\n got %v\nwant %v", sensors, got, want)
		}
		windows := fuzzEntries(data, keyRange, func(k uint16) cps.Window { return cps.Window(k) - 32 })
		if got, want := NewFeature(windows), newFeatureReference(windows); !featuresExactEq(got, want) {
			t.Fatalf("NewFeature(%v)\n got %v\nwant %v", windows, got, want)
		}
	})
}
