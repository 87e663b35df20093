package storage

import (
	"bytes"
	"encoding/binary"
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
// the last of which has macro children, so the cluster files carry child
// links two levels deep.
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
	for _, codec := range []struct {
		name  string
		write func(w *bytes.Buffer, cs []*cluster.Cluster) (int64, error)
	}{
		{"clusters", func(w *bytes.Buffer, cs []*cluster.Cluster) (int64, error) { return WriteClusters(w, cs) }},
		{"clusters-exact", func(w *bytes.Buffer, cs []*cluster.Cluster) (int64, error) { return WriteClustersExact(w, cs) }},
	} {
		for _, set := range []struct {
			name string
			cs   []*cluster.Cluster
		}{{"empty", nil}, {"micros", cs[:40]}, {"all", cs}} {
			var buf bytes.Buffer
			if _, err := codec.write(&buf, set.cs); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, formatLine(codec.name+" set="+set.name, buf.Bytes()))
		}
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

// TestClustersV1MatchesV2 pins the version-1 read path: "ATYPCLU1" followed
// by a version-2 payload (no length/CRC frame) decodes to exactly what the
// version-2 file decodes to, and every truncation of it fails as corrupt.
func TestClustersV1MatchesV2(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteClusters(&buf, goldenClusters()); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	payloadLen, k := binary.Uvarint(v2[len(clusterMagic):])
	payload := v2[len(clusterMagic)+k+4:]
	if k <= 0 || uint64(len(payload)) != payloadLen {
		t.Fatalf("unexpected v2 framing: length %d, %d payload bytes", payloadLen, len(payload))
	}
	v1 := append(append([]byte(nil), clusterMagicV1[:]...), payload...)

	want, err := ReadClusters(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadClusters(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if top := want[len(want)-1]; len(top.Children) != 2 {
		t.Fatalf("v2 decode resolved %d children of the top macro, want 2", len(top.Children))
	}
	if d := clusterSetDiff(got, want); d != "" {
		t.Fatalf("v1 decode differs from v2: %s", d)
	}
	for cut := len(clusterMagicV1); cut < len(v1); cut++ {
		if _, err := ReadClusters(bytes.NewReader(v1[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v1 truncated to %d of %d bytes: got %v, want ErrCorrupt", cut, len(v1), err)
		}
	}
}

// clusterSetDiff describes the first difference between two decoded
// cluster sets — IDs, micro counts, resolved child IDs, and feature keys
// with severities by their exact bits — or returns "" when they agree.
func clusterSetDiff(got, want []*cluster.Cluster) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Micros != w.Micros {
			return fmt.Sprintf("cluster %d: id/micros %d/%d, want %d/%d", i, g.ID, g.Micros, w.ID, w.Micros)
		}
		if len(g.Children) != len(w.Children) {
			return fmt.Sprintf("cluster %d: %d children, want %d", i, len(g.Children), len(w.Children))
		}
		for k := range g.Children {
			if g.Children[k].ID != w.Children[k].ID {
				return fmt.Sprintf("cluster %d: child %d id %d, want %d", i, k, g.Children[k].ID, w.Children[k].ID)
			}
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
