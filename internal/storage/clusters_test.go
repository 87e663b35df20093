package storage

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// exactCluster builds a micro-cluster without quantizing severities — the
// whole point of the exact codec is that values like 0.1 and 1/3 survive
// bit-for-bit.
func exactCluster(g *cluster.IDGen, recs []cps.Record) *cluster.Cluster {
	return cluster.FromRecords(g.Next(), recs)
}

func TestClustersExactBitExactRoundTrip(t *testing.T) {
	var g cluster.IDGen
	a := exactCluster(&g, []cps.Record{
		{Sensor: 1, Window: 97, Severity: 0.1},
		{Sensor: 2, Window: 98, Severity: cps.Severity(1.0 / 3.0)},
	})
	b := exactCluster(&g, []cps.Record{
		{Sensor: 1, Window: 99, Severity: cps.Severity(math.Nextafter(2.5, 3))},
		{Sensor: 7, Window: 99, Severity: 1e-17},
	})
	var buf bytes.Buffer
	n, err := WriteClustersExact(&buf, []*cluster.Cluster{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadClustersExact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d clusters, want 2", len(got))
	}
	for i, want := range []*cluster.Cluster{a, b} {
		c := got[i]
		if c.ID != want.ID || c.Micros != want.Micros {
			t.Errorf("cluster %d header mismatch: %+v vs %+v", i, c, want)
		}
		if len(c.SF) != len(want.SF) || len(c.TF) != len(want.TF) {
			t.Fatalf("cluster %d feature sizes differ", i)
		}
		for k := range c.SF {
			if c.SF[k].Key != want.SF[k].Key ||
				math.Float64bits(float64(c.SF[k].Sev)) != math.Float64bits(float64(want.SF[k].Sev)) {
				t.Errorf("cluster %d SF[%d] = %v, want bit-exact %v", i, k, c.SF[k], want.SF[k])
			}
		}
		for k := range c.TF {
			if c.TF[k].Key != want.TF[k].Key ||
				math.Float64bits(float64(c.TF[k].Sev)) != math.Float64bits(float64(want.TF[k].Sev)) {
				t.Errorf("cluster %d TF[%d] = %v, want bit-exact %v", i, k, c.TF[k], want.TF[k])
			}
		}
		if math.Float64bits(float64(c.Severity())) != math.Float64bits(float64(want.Severity())) {
			t.Errorf("cluster %d hydrated severity %v, want %v", i, c.Severity(), want.Severity())
		}
	}
}

func TestClustersExactEmptySet(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteClustersExact(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClustersExact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("read %d clusters from empty set", len(got))
	}
}

func TestClustersExactRejectsCorruption(t *testing.T) {
	var g cluster.IDGen
	c := exactCluster(&g, []cps.Record{{Sensor: 3, Window: 5, Severity: 0.7}})
	var buf bytes.Buffer
	if _, err := WriteClustersExact(&buf, []*cluster.Cluster{c}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := ReadClustersExact(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x01
		if _, err := ReadClustersExact(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadClustersExact(bytes.NewReader(good[:len(good)-3])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0x00)
		if _, err := ReadClustersExact(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// invalidClusterFrames returns CRC-valid cluster files, written by
// WriteClustersExact, whose clusters fail cluster.Cluster.Valid: a decoder
// that loaded them would hand integration NaN, infinite, non-positive or
// out-of-order entries, or a micro count below one or above
// cluster.MaxMicros.
func invalidClusterFrames(t testing.TB) map[string][]byte {
	t.Helper()
	sf := func(es ...cluster.Entry[cps.SensorID]) cluster.SpatialFeature { return es }
	e := func(k cps.SensorID, sev float64) cluster.Entry[cps.SensorID] {
		return cluster.Entry[cps.SensorID]{Key: k, Sev: cps.Severity(sev)}
	}
	tf := cluster.TemporalFeature{{Key: 7, Sev: 1}}
	cases := map[string]*cluster.Cluster{
		"nan":          {ID: 1, Micros: 1, SF: sf(e(2, math.NaN())), TF: tf},
		"+inf":         {ID: 1, Micros: 1, SF: sf(e(2, math.Inf(1))), TF: tf},
		"-inf":         {ID: 1, Micros: 1, SF: sf(e(2, math.Inf(-1))), TF: tf},
		"negative":     {ID: 1, Micros: 1, SF: sf(e(2, 1), e(3, -1)), TF: tf},
		"zero":         {ID: 1, Micros: 1, SF: sf(e(2, 0)), TF: tf},
		"repeated key": {ID: 1, Micros: 1, SF: sf(e(2, 1), e(2, 3)), TF: tf},
		// The delta 2-5 wraps uint32 back to key 2.
		"wrapped delta": {ID: 1, Micros: 1, SF: sf(e(5, 1), e(2, 3)), TF: tf},
		// NaN, a negative severity and a repeated key at once, with an
		// infinite temporal entry.
		"mixed": {ID: 1, Micros: 1, SF: sf(e(5, math.NaN()), e(2, -1), e(2, 3)),
			TF: cluster.TemporalFeature{{Key: 7, Sev: cps.Severity(math.Inf(1))}}},
		"zero micros": {ID: 1, Micros: 0, SF: sf(e(2, 1)), TF: tf},
		// Negative counts are written as their uint64 bits: 2^63 and
		// 2^64-1, neither of which fits in int.
		"micros 2^63":   {ID: 1, Micros: math.MinInt, SF: sf(e(2, 1)), TF: tf},
		"micros 2^64-1": {ID: 1, Micros: -1, SF: sf(e(2, 1)), TF: tf},
		// Counts that fit in int but could overflow once merges sum them:
		// MaxInt merged with any cluster wrapped to MinInt.
		"micros MaxMicros+1": {ID: 1, Micros: cluster.MaxMicros + 1, SF: sf(e(2, 1)), TF: tf},
		"micros MaxInt":      {ID: 1, Micros: math.MaxInt, SF: sf(e(2, 1)), TF: tf},
	}
	out := make(map[string][]byte, len(cases))
	for name, c := range cases {
		var buf bytes.Buffer
		if _, err := WriteClustersExact(&buf, []*cluster.Cluster{c}); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// Every cluster the decoder accepts passes cluster.Cluster.Valid; a
// CRC-valid file holding one that does not is corrupt. The extremes of the
// rule — subnormal and MaxFloat64 severities, key 0, the largest sensor,
// negative windows — still round-trip.
func TestClustersExactRejectsInvalidFeatures(t *testing.T) {
	for name, frame := range invalidClusterFrames(t) {
		if cs, err := ReadClustersExact(bytes.NewReader(frame)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, %v; want ErrCorrupt", name, cs, err)
		}
	}
	edge := &cluster.Cluster{ID: 9, Micros: 2,
		SF: cluster.SpatialFeature{{Key: 0, Sev: math.SmallestNonzeroFloat64}, {Key: math.MaxUint32, Sev: math.MaxFloat64}},
		TF: cluster.TemporalFeature{{Key: math.MinInt64, Sev: 1}, {Key: -1, Sev: 2}, {Key: math.MaxInt64, Sev: 3}},
	}
	var buf bytes.Buffer
	if _, err := WriteClustersExact(&buf, []*cluster.Cluster{edge}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClustersExact(&buf)
	if err != nil {
		t.Fatalf("valid extremes rejected: %v", err)
	}
	if d := clusterSetDiff(got, []*cluster.Cluster{edge}); d != "" {
		t.Fatalf("valid extremes decode differently: %s", d)
	}
}
