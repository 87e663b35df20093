package storage

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

func TestQuantize(t *testing.T) {
	if got := Quantize(1.0); got != 1.0 {
		t.Errorf("Quantize(1) = %v", got)
	}
	// Quantization error is at most half a quantum.
	for _, s := range []cps.Severity{0.333, 4.99999, 2.718281828} {
		q := Quantize(s)
		if math.Abs(float64(q-s)) > SeverityQuantum/2+1e-12 {
			t.Errorf("Quantize(%v) = %v, error too large", s, q)
		}
	}
	// A positive severity never rounds to 0, which cps.Severity.Valid and
	// so ingest would reject: below half a quantum it keeps one quantum.
	for _, s := range []cps.Severity{1e-4, math.SmallestNonzeroFloat64, SeverityQuantum / 2, SeverityQuantum * 0.4} {
		if q := Quantize(s); q != SeverityQuantum {
			t.Errorf("Quantize(%v) = %v, want one quantum %v", s, q, SeverityQuantum)
		}
	}
	if q := Quantize(0); q != 0 {
		t.Errorf("Quantize(0) = %v", q)
	}
	// The record encoder writes Quantize's value.
	var buf bytes.Buffer
	if _, err := WriteRecords(&buf, []cps.Record{{Sensor: 1, Window: 2, Severity: 1e-4}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := cps.Record{Sensor: 1, Window: 2, Severity: SeverityQuantum}
	if len(got) != 1 || got[0] != want || !got[0].Severity.Valid() {
		t.Fatalf("round trip = %v, want %v with a valid severity", got, want)
	}
}

func randomCanonical(n int, seed int64) []cps.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]cps.Record, n)
	for i := range recs {
		recs[i] = cps.Record{
			Sensor:   cps.SensorID(rng.Intn(4000)),
			Window:   cps.Window(rng.Intn(100000)),
			Severity: cps.Severity(rng.Float64() * 5),
		}
	}
	return cps.NewRecordSet(recs).Records()
}

func TestRecordRoundTrip(t *testing.T) {
	recs := randomCanonical(20000, 1)
	var buf bytes.Buffer
	n, err := WriteRecords(&buf, recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		want := recs[i]
		want.Severity = Quantize(want.Severity)
		if got[i] != want {
			t.Fatalf("record %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestRecordRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteRecords(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("read %d records from empty file", len(got))
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		recs := make([]cps.Record, 0, len(seeds))
		for _, x := range seeds {
			recs = append(recs, cps.Record{
				Sensor:   cps.SensorID(x % 64),
				Window:   cps.Window(x / 64 % 1024),
				Severity: cps.Severity(x%40)/8 + 0.125,
			})
		}
		canonical := cps.NewRecordSet(recs).Records()
		var buf bytes.Buffer
		if _, err := WriteRecords(&buf, canonical); err != nil {
			return false
		}
		got, err := ReadRecords(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(canonical) {
			return false
		}
		for i := range got {
			want := canonical[i]
			want.Severity = Quantize(want.Severity)
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadRecordsRejectsBadMagic(t *testing.T) {
	if _, err := ReadRecords(bytes.NewReader([]byte("NOTAFILE????"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadRecords(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadRecordsDetectsCorruption(t *testing.T) {
	recs := randomCanonical(5000, 3)
	var buf bytes.Buffer
	if _, err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the first block payload (past magic+headers).
	data[64] ^= 0xFF
	if _, err := ReadRecords(bytes.NewReader(data)); err == nil {
		t.Error("corruption not detected")
	}
	// Truncation must also error.
	if _, err := ReadRecords(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncation not detected")
	}
}

func TestRecordsCompression(t *testing.T) {
	// Canonical delta encoding should beat the naive 20-byte record by a
	// wide margin on clustered data.
	var recs []cps.Record
	for w := cps.Window(0); w < 200; w++ {
		for s := cps.SensorID(100); s < 140; s++ {
			recs = append(recs, cps.Record{Sensor: s, Window: w, Severity: 4})
		}
	}
	size := RecordsSize(recs)
	perRecord := float64(size) / float64(len(recs))
	if perRecord > 6 {
		t.Errorf("encoding uses %.1f bytes/record, want < 6 on clustered data", perRecord)
	}
}

func TestRecordFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d1.rec")
	recs := randomCanonical(1000, 9)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteRecords(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := ReadRecords(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Errorf("disk round trip lost records: %d vs %d", len(got), len(recs))
	}
}

func TestClusterRoundTrip(t *testing.T) {
	var g cluster.IDGen
	a := exactCluster(&g, []cps.Record{
		{Sensor: 1, Window: 97, Severity: 4},
		{Sensor: 2, Window: 98, Severity: 5},
	})
	b := exactCluster(&g, []cps.Record{
		{Sensor: 1, Window: 99, Severity: 2.5},
		{Sensor: 7, Window: 99, Severity: 1.25},
	})
	m := cluster.Merge(&g, a, b)
	var buf bytes.Buffer
	n, err := WriteClustersExact(&buf, []*cluster.Cluster{a, b, m})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadClustersExact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d clusters", len(got))
	}
	for i, want := range []*cluster.Cluster{a, b, m} {
		c := got[i]
		if c.ID != want.ID || c.Micros != want.Micros {
			t.Errorf("cluster %d header mismatch", i)
		}
		if len(c.SF) != len(want.SF) || len(c.TF) != len(want.TF) {
			t.Fatalf("cluster %d feature sizes differ", i)
		}
		for k := range c.SF {
			if c.SF[k] != want.SF[k] {
				t.Errorf("cluster %d SF[%d] = %v, want %v", i, k, c.SF[k], want.SF[k])
			}
		}
		for k := range c.TF {
			if c.TF[k] != want.TF[k] {
				t.Errorf("cluster %d TF[%d] = %v, want %v", i, k, c.TF[k], want.TF[k])
			}
		}
	}
}

func TestClusterRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteClustersExact(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadClustersExact(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty set round trip: %v, %v", got, err)
	}
}

func TestReadClustersRejectsGarbage(t *testing.T) {
	if _, err := ReadClustersExact(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("garbage accepted")
	}
	// A record file is not a cluster file.
	var buf bytes.Buffer
	if _, err := WriteRecords(&buf, randomCanonical(10, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadClustersExact(&buf); !errors.Is(err, ErrBadMagic) {
		t.Errorf("record file read as clusters: %v, want ErrBadMagic", err)
	}
}

func TestClusterSizeIsCompact(t *testing.T) {
	// The AC model must be a small fraction of the raw event encoding when
	// events are long (many records per sensor): AC stores one entry per
	// sensor and window, events store one record per (sensor, window).
	var g cluster.IDGen
	var recs []cps.Record
	for w := cps.Window(0); w < 500; w++ {
		for s := cps.SensorID(0); s < 50; s++ {
			recs = append(recs, cps.Record{Sensor: s, Window: w, Severity: 4})
		}
	}
	c := cluster.FromRecords(g.Next(), recs)
	eventSize := RecordsSize(recs)
	clusterSize := ClustersSize([]*cluster.Cluster{c})
	if float64(clusterSize) > 0.1*float64(eventSize) {
		t.Errorf("cluster %dB vs event %dB: want ≤ 10%%", clusterSize, eventSize)
	}
}
