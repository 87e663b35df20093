package forest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/faultfs"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/storage"
)

// TestForestSaveCrashMatrix crashes an overwriting Save at every mutating
// filesystem operation and checks every published cluster file stays
// individually valid — a recovering load (and even a strict one, since the
// atomic protocol never publishes torn files) succeeds with nothing to
// quarantine.
func TestForestSaveCrashMatrix(t *testing.T) {
	// The second save overwrites days 0–2 and adds days 3–6, so the matrix
	// covers both fresh and replacing renames.
	build := func(days int) *Forest {
		f, _ := buildForest(t, days)
		return f
	}

	probe := faultfs.NewInjector(faultfs.OS{})
	probeDir := t.TempDir()
	if err := build(3).SaveFS(probeDir, probe); err != nil {
		t.Fatal(err)
	}
	before := probe.MutatingOps()
	if err := build(7).SaveFS(probeDir, probe); err != nil {
		t.Fatal(err)
	}
	ops := probe.MutatingOps() - before
	if ops < 8 {
		t.Fatalf("overwriting save took %d mutating ops; expected several per file", ops)
	}

	for k := 1; k <= ops; k++ {
		dir := t.TempDir()
		if err := build(3).Save(dir); err != nil {
			t.Fatal(err)
		}
		inj := faultfs.NewInjector(faultfs.OS{})
		inj.ShortWrites(true)
		inj.CrashAt(k)
		if err := build(7).SaveFS(dir, inj); err == nil {
			t.Fatalf("crash %d/%d: injected save unexpectedly succeeded", k, ops)
		}

		var g cluster.IDGen
		loaded, report, err := Load(dir, cps.DefaultSpec(), &g, opts(), 30,
			LoadOptions{Recover: true})
		if err != nil {
			t.Fatalf("crash %d/%d: recovering load: %v", k, ops, err)
		}
		if len(report.Quarantined) != 0 {
			t.Fatalf("crash %d/%d: atomic saves should never need quarantine, got %v",
				k, ops, report.Quarantined)
		}
		if days := len(loaded.Days()); days < 3 || days > 7 {
			t.Fatalf("crash %d/%d: loaded %d days, want between old (3) and new (7)", k, ops, days)
		}
		// The strict loader must agree: nothing on disk is torn.
		var g2 cluster.IDGen
		if _, _, err := Load(dir, cps.DefaultSpec(), &g2, opts(), 30, LoadOptions{}); err != nil {
			t.Fatalf("crash %d/%d: strict load after crash: %v", k, ops, err)
		}
		// Crash debris is cleared by the load, not inherited forever.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if faultfs.IsTemp(e.Name()) {
				t.Errorf("crash %d/%d: stray temp survived load: %s", k, ops, e.Name())
			}
		}
	}
}

// TestForestLoadQuarantinesFlippedFile damages one cluster file — a bit
// flip, or a day file left in the retired quantized ATYPCLU2 format, which
// cannot give exact answers — and checks the degraded mode is explicit: the
// strict load fails with the matching storage error, the recovering load
// quarantines the file, counts it, and serves the healthy remainder.
func TestForestLoadQuarantinesFlippedFile(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, victim string)
		wantErr error
	}{
		{"flipped", func(t *testing.T, victim string) {
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-3] ^= 0x20
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, storage.ErrCorrupt},
		// testdata/day-00002-atypclu2.clu is day 2 of buildForest(5) as the
		// quantized writer saved it before that format was retired.
		{"retired ATYPCLU2", func(t *testing.T, victim string) {
			data, err := os.ReadFile("testdata/day-00002-atypclu2.clu")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, storage.ErrBadMagic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testLoadQuarantines(t, tc.damage, tc.wantErr)
		})
	}
}

func testLoadQuarantines(t *testing.T, damage func(t *testing.T, victim string), wantErr error) {
	f, _ := buildForest(t, 5)
	dir := t.TempDir()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, "day-00002.clu")
	damage(t, victim)

	var g cluster.IDGen
	if _, _, err := Load(dir, cps.DefaultSpec(), &g, opts(), 30, LoadOptions{}); !errors.Is(err, wantErr) {
		t.Fatalf("strict load of damaged file: err = %v, want %v", err, wantErr)
	}

	reg := obs.NewRegistry()
	var g2 cluster.IDGen
	loaded, report, err := Load(dir, cps.DefaultSpec(), &g2, opts(), 30,
		LoadOptions{Recover: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Quarantined) != 1 || report.Quarantined[0] != "day-00002.clu" {
		t.Fatalf("Quarantined = %v, want [day-00002.clu]", report.Quarantined)
	}
	if _, err := os.Stat(victim + faultfs.CorruptSuffix); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if days := loaded.Days(); len(days) != 4 {
		t.Fatalf("loaded days = %v, want the 4 healthy ones", days)
	}
	if loaded.Day(2) != nil {
		t.Error("quarantined day still present")
	}
	var exposed strings.Builder
	if _, err := reg.WriteTo(&exposed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exposed.String(), "atyp_storage_corrupt_total") ||
		!strings.Contains(exposed.String(), `src="forest"`) {
		t.Errorf("corruption metric not exposed:\n%s", exposed.String())
	}

	// A reload of the quarantined directory is clean: *.corrupt is ignored.
	var g3 cluster.IDGen
	again, report2, err := Load(dir, cps.DefaultSpec(), &g3, opts(), 30,
		LoadOptions{Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Quarantined) != 0 {
		t.Errorf("second recovery re-quarantined: %v", report2.Quarantined)
	}
	if len(again.Days()) != 4 {
		t.Errorf("second recovery days = %v", again.Days())
	}
}

// TestStaleLevelFilesNeverQuarantined loads a directory that also holds the
// week-*/month-* level files older saves wrote — one a valid cluster set,
// one corrupt. Only day files are stored data, so both loads succeed with
// nothing quarantined, the level files stay untouched, and every day loads.
func TestStaleLevelFilesNeverQuarantined(t *testing.T) {
	f, _ := buildForest(t, 14)
	dir := t.TempDir()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	var stale bytes.Buffer
	if _, err := storage.WriteClustersExact(&stale, f.Week(0)); err != nil {
		t.Fatal(err)
	}
	levels := map[string][]byte{
		"week-00000.clu":  stale.Bytes(),
		"month-00000.clu": []byte("not a cluster file"),
	}
	for name, data := range levels {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, lo := range []LoadOptions{{}, {Recover: true}} {
		var g cluster.IDGen
		loaded, report, err := Load(dir, cps.DefaultSpec(), &g, opts(), 30, lo)
		if err != nil {
			t.Fatalf("Recover=%v: %v", lo.Recover, err)
		}
		if len(report.Quarantined) != 0 {
			t.Fatalf("Recover=%v: quarantined %v", lo.Recover, report.Quarantined)
		}
		if got, want := loaded.Stats(), f.Stats(); got != want {
			t.Fatalf("Recover=%v: loaded %+v, saved %+v", lo.Recover, got, want)
		}
	}
	for name, want := range levels {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed by the load (err %v)", name, err)
		}
	}
}

// TestSaveRemovesStaleLevelFiles saves into a directory that holds the
// week-*/month-* level files older saves wrote, and checks the save removes
// both while leaving a quarantined look-alike alone. A crash at any mutating
// operation of that save leaves a directory the strict loader accepts with
// nothing quarantined, since the removals come after every day commit.
func TestSaveRemovesStaleLevelFiles(t *testing.T) {
	f, _ := buildForest(t, 9)
	stale := []string{"week-00000.clu", "month-00000.clu"}
	const kept = "week-00001.clu.corrupt"
	seed := func(t *testing.T) string {
		dir := t.TempDir()
		for _, name := range append([]string{kept}, stale...) {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("not a cluster file"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	probe := faultfs.NewInjector(faultfs.OS{})
	dir := seed(t)
	if err := f.SaveFS(dir, probe); err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the save (stat err %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, kept)); err != nil {
		t.Errorf("%s should stay: %v", kept, err)
	}

	ops := probe.MutatingOps()
	for k := 1; k <= ops; k++ {
		dir := seed(t)
		inj := faultfs.NewInjector(faultfs.OS{})
		inj.CrashAt(k)
		if err := f.SaveFS(dir, inj); err == nil {
			t.Fatalf("crash %d/%d: injected save unexpectedly succeeded", k, ops)
		}
		var g cluster.IDGen
		_, report, err := Load(dir, cps.DefaultSpec(), &g, opts(), 30, LoadOptions{})
		if err != nil || len(report.Quarantined) != 0 {
			t.Fatalf("crash %d/%d: strict load: err %v, quarantined %v", k, ops, err, report.Quarantined)
		}
	}
}
