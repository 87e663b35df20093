package storage

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// The format golden pins the exact bytes every writer produces: one line
// per encoding with its length and FNV-64 digest. A codec refactor must
// leave it unedited; a changed line is a changed on-disk or wire format.
// Regenerate with
//
//	go test ./internal/storage/ -run TestFormatGolden -update
//
// only for an intended format change.

var update = flag.Bool("update", false, "rewrite testdata/format_golden.txt from the current code")

const formatGoldenFile = "testdata/format_golden.txt"

// goldenClusters is a seeded micro-cluster set followed by merged macros,
// the last merged from two macros, so the sets carry micro counts above 1
// and severities summed across levels.
func goldenClusters() []*cluster.Cluster {
	rng := rand.New(rand.NewSource(20))
	var g cluster.IDGen
	var cs []*cluster.Cluster
	for i := 0; i < 40; i++ {
		recs := make([]cps.Record, 1+rng.Intn(30))
		for j := range recs {
			recs[j] = cps.Record{
				Sensor:   cps.SensorID(rng.Intn(300)),
				Window:   cps.Window(rng.Intn(5000)),
				Severity: cps.Severity(rng.Float64() * 5),
			}
		}
		cs = append(cs, cluster.FromRecords(g.Next(), cps.NewRecordSet(recs).Records()))
	}
	m1 := cluster.Merge(&g, cs[0], cs[1])
	m2 := cluster.Merge(&g, m1, cs[2])
	m3 := cluster.Merge(&g, cs[3], cs[4])
	top := cluster.Merge(&g, m2, m3)
	return append(cs, m1, m2, m3, top)
}

func formatLine(name string, b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%s bytes=%d fnv64=%016x", name, len(b), h.Sum64())
}

func TestFormatGolden(t *testing.T) {
	var lines []string
	for _, n := range []int{0, 1, 8192, 20000} {
		var buf bytes.Buffer
		if _, err := WriteRecords(&buf, randomCanonical(n, int64(n)+1)); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, formatLine(fmt.Sprintf("records n=%d", n), buf.Bytes()))
	}
	cs := goldenClusters()
	for _, set := range []struct {
		name string
		cs   []*cluster.Cluster
	}{{"empty", nil}, {"micros", cs[:40]}, {"all", cs}} {
		var buf bytes.Buffer
		if _, err := WriteClustersExact(&buf, set.cs); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, formatLine("clusters-exact set="+set.name, buf.Bytes()))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(formatGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(formatGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("encoded bytes changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestClustersRetiredFormatsRejected pins the retirement of the quantized
// cluster files: "ATYPCLU1" (unframed) and "ATYPCLU2" (framed, with child
// IDs), both as written by the removed writer, fail as ErrBadMagic rather
// than decoding to approximate severities.
func TestClustersRetiredFormatsRejected(t *testing.T) {
	for i, data := range retiredClusterFiles(t) {
		if !retiredClusterFile(data) {
			t.Fatalf("file %d does not start with a retired magic: %q", i, data[:8])
		}
		if _, err := ReadClustersExact(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%q file: got %v, want ErrBadMagic", data[:8], err)
		}
	}
}

// retiredClusterFiles returns goldenClusters' cs[0], cs[1] and cs[40] as
// the removed quantized writer stored them: "ATYPCLU1" (unframed), then
// "ATYPCLU2" (framed, with child IDs).
func retiredClusterFiles(tb testing.TB) [][]byte {
	var files [][]byte
	for _, name := range []string{"retired_atypclu1.clu", "retired_atypclu2.clu"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

// retiredClusterFile reports whether data opens with the magic of a
// retired cluster format.
func retiredClusterFile(data []byte) bool {
	return bytes.HasPrefix(data, []byte("ATYPCLU1")) || bytes.HasPrefix(data, []byte("ATYPCLU2"))
}

// clusterSetDiff describes the first difference between two decoded
// cluster sets — IDs, micro counts, and feature keys with severities by
// their exact bits — or returns "" when they agree.
func clusterSetDiff(got, want []*cluster.Cluster) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Micros != w.Micros {
			return fmt.Sprintf("cluster %d: id/micros %d/%d, want %d/%d", i, g.ID, g.Micros, w.ID, w.Micros)
		}
		if d := featureDiff(g.SF, w.SF); d != "" {
			return fmt.Sprintf("cluster %d SF: %s", i, d)
		}
		if d := featureDiff(g.TF, w.TF); d != "" {
			return fmt.Sprintf("cluster %d TF: %s", i, d)
		}
	}
	return ""
}

func featureDiff[K cluster.Key](got, want cluster.Feature[K]) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for k := range got {
		if got[k].Key != want[k].Key || math.Float64bits(float64(got[k].Sev)) != math.Float64bits(float64(want[k].Sev)) {
			return fmt.Sprintf("entry %d = %v, want %v", k, got[k], want[k])
		}
	}
	return ""
}
