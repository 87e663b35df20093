// Package forest implements the atypical forest (Section III-C): a
// collection of hierarchical clustering trees whose leaves are per-day
// micro-clusters and whose internal nodes are macro-clusters integrated
// level by level (day → week → month, plus alternative aggregation paths
// such as weekday/weekend). Only the day level is stored (Section IV);
// every higher level is integrated from a snapshot of the days each time
// it is asked for.
//
// A Forest is safe for concurrent use: any number of readers (queries,
// on-demand level integration) may run alongside writers (AddDay/AppendDay).
// Readers take a snapshot of the day slices under the read lock and
// integrate outside it; every write bumps a version counter that the answer
// cache and EXPLAIN records key on.
package forest

import (
	"cmp"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/faultfs"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/storage"
)

// DaysPerWeek is the week rollup width.
const DaysPerWeek = 7

// Forest holds the materialized micro-clusters by day.
type Forest struct {
	spec cps.WindowSpec
	gen  *cluster.IDGen
	opts cluster.IntegrateOptions
	// daysPerMonth fixes the month bucket arithmetic (generated datasets
	// use fixed-length months).
	daysPerMonth int

	mu      sync.RWMutex
	version uint64 // bumped by every write
	days    map[int][]*cluster.Cluster
	// order lists the keys of days ascending. A new day replaces the slice
	// instead of writing into it, so a reader may keep it past the lock.
	order []int

	// obsm holds the pre-resolved metric handles (nil = unobserved). An
	// atomic pointer so SetObserver may arm an already-shared forest
	// without racing readers.
	obsm atomic.Pointer[forestObs]
}

// forestObs carries the forest's metric handles, resolved once by
// SetObserver. All handles are nil-safe, so a partially wired struct is
// harmless; a nil *forestObs (the unobserved default) costs one atomic
// load per hook.
type forestObs struct {
	appends      *obs.Counter
	versionBumps *obs.Counter
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	corrupt      *obs.Counter
}

// SetObserver registers the forest's metric families on r and arms the
// hooks: copy-on-write appends, version bumps, and the bytes Save/Load move
// through storage. A nil registry disarms.
func (f *Forest) SetObserver(r *obs.Registry) {
	if r == nil {
		f.obsm.Store(nil)
		return
	}
	f.obsm.Store(&forestObs{
		appends:      r.Counter("atyp_forest_appends_total", "copy-on-write day appends"),
		versionBumps: r.Counter("atyp_forest_version_bumps_total", "forest writes bumping the version"),
		bytesRead:    r.Counter("atyp_storage_bytes_read_total", "bytes read loading persisted clusters"),
		bytesWritten: r.Counter("atyp_storage_bytes_written_total", "bytes written persisting clusters"),
		corrupt: r.Counter("atyp_storage_corrupt_total",
			"persisted files that failed integrity checks and were quarantined",
			"src", "forest"),
	})
}

// New returns an empty forest integrating with opts.
func New(spec cps.WindowSpec, gen *cluster.IDGen, opts cluster.IntegrateOptions, daysPerMonth int) *Forest {
	if daysPerMonth <= 0 {
		panic("forest: daysPerMonth must be positive")
	}
	return &Forest{
		spec:         spec,
		gen:          gen,
		opts:         opts,
		daysPerMonth: daysPerMonth,
		days:         make(map[int][]*cluster.Cluster),
	}
}

// Options returns the integration options the forest was built with.
func (f *Forest) Options() cluster.IntegrateOptions { return f.opts }

// Spec returns the forest's window spec.
func (f *Forest) Spec() cps.WindowSpec { return f.spec }

// AddDay stores the micro-clusters of one day (leaves of every tree),
// replacing any previous slice.
func (f *Forest) AddDay(day int, micros []*cluster.Cluster) {
	f.mu.Lock()
	f.setDayLocked(day, micros)
	f.bumpLocked()
	f.mu.Unlock()
}

// AppendDay extends one day's micro-clusters copy-on-write: readers holding
// the previous slice keep a consistent snapshot, because the backing array
// they alias is never written through again.
func (f *Forest) AppendDay(day int, micros []*cluster.Cluster) {
	if len(micros) == 0 {
		return
	}
	f.mu.Lock()
	existing := f.days[day]
	merged := make([]*cluster.Cluster, 0, len(existing)+len(micros))
	merged = append(merged, existing...)
	merged = append(merged, micros...)
	f.setDayLocked(day, merged)
	f.bumpLocked()
	f.mu.Unlock()
	if m := f.obsm.Load(); m != nil {
		m.appends.Inc()
	}
}

// Touch advances the version exactly as AppendDay(day, micros) would, without
// storing the micros: a system whose micro-clusters live elsewhere (the
// shard servers of a coordinator) keeps the version stamps its answer cache
// and EXPLAIN read moving with its ingest. It takes AppendDay's arguments so
// either can be the store step of one ingest body.
func (f *Forest) Touch(_ int, micros []*cluster.Cluster) {
	if len(micros) == 0 {
		return
	}
	f.mu.Lock()
	f.bumpLocked()
	f.mu.Unlock()
}

// setDayLocked stores one day's slice, adding the day to the order when it
// is new. Callers hold f.mu for writing.
func (f *Forest) setDayLocked(day int, micros []*cluster.Cluster) {
	if _, ok := f.days[day]; !ok {
		i, _ := slices.BinarySearch(f.order, day)
		f.order = slices.Insert(slices.Clip(f.order), i, day)
	}
	f.days[day] = micros
}

// bumpLocked advances the version after a write. Callers hold f.mu.
func (f *Forest) bumpLocked() {
	f.version++
	if m := f.obsm.Load(); m != nil {
		m.versionBumps.Inc()
	}
}

// Day returns the micro-clusters of one day (nil when absent). The returned
// slice is a snapshot: writers never mutate it in place.
func (f *Forest) Day(day int) []*cluster.Cluster {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.days[day]
}

// Days returns the stored day indices, ascending.
func (f *Forest) Days() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return slices.Clone(f.order)
}

// MicrosInRange returns every micro-cluster whose day falls inside the
// day-aligned range tr, in day order. The count of returned clusters is the
// I/O measure of Fig. 17(b).
func (f *Forest) MicrosInRange(tr cps.TimeRange) []*cluster.Cluster {
	perDay := cps.Window(f.spec.PerDay())
	f.mu.RLock()
	defer f.mu.RUnlock()
	// Day starts ascend with the day, so the days in range are one run of
	// the order.
	lo, _ := slices.BinarySearchFunc(f.order, tr.From, func(d int, from cps.Window) int {
		return cmp.Compare(cps.Window(d)*perDay, from)
	})
	hi, n := lo, 0
	for ; hi < len(f.order) && cps.Window(f.order[hi])*perDay < tr.To; hi++ {
		n += len(f.days[f.order[hi]])
	}
	if n == 0 {
		return nil
	}
	out := make([]*cluster.Cluster, 0, n)
	for _, d := range f.order[lo:hi] {
		out = append(out, f.days[d]...)
	}
	return out
}

// Week integrates the macro-clusters of week w — the clustering-tree level
// above days in Fig. 10.
func (f *Forest) Week(w int) []*cluster.Cluster {
	f.mu.RLock()
	leaves := f.leavesLocked(w*DaysPerWeek, (w+1)*DaysPerWeek)
	f.mu.RUnlock()
	return cluster.Integrate(f.gen, leaves, f.opts)
}

// Month integrates the macro-clusters of month m, days [m·dpm, (m+1)·dpm),
// along the multi-level path day → week → month: each week, clipped to the
// month, is integrated first and the month from those week clusters. All
// weeks come from one snapshot of the days.
func (f *Forest) Month(m int) []*cluster.Cluster {
	first, end := m*f.daysPerMonth, (m+1)*f.daysPerMonth
	var weeks [][]*cluster.Cluster
	f.mu.RLock()
	for w := first / DaysPerWeek; w*DaysPerWeek < end; w++ {
		weeks = append(weeks, f.leavesLocked(max(w*DaysPerWeek, first), min((w+1)*DaysPerWeek, end)))
	}
	f.mu.RUnlock()
	var leaves []*cluster.Cluster
	for _, week := range weeks {
		leaves = append(leaves, cluster.Integrate(f.gen, week, f.opts)...)
	}
	return cluster.Integrate(f.gen, leaves, f.opts)
}

// leavesLocked concatenates the micro-clusters of days [from, to). Callers
// hold f.mu (either mode).
func (f *Forest) leavesLocked(from, to int) []*cluster.Cluster {
	var leaves []*cluster.Cluster
	for d := from; d < to; d++ {
		leaves = append(leaves, f.days[d]...)
	}
	return leaves
}

// Version returns the forest's write-version counter — bumped by every
// AddDay/AppendDay/Touch, and the join key EXPLAIN records use to tie an answer
// to a specific forest state.
func (f *Forest) Version() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.version
}

// PathFunc maps a day index to an aggregation bucket; ok=false excludes the
// day. Alternative paths (weekday/weekend, by month parity, ...) make up
// the different trees of the forest.
type PathFunc func(day int) (bucket int, ok bool)

// WeekdayWeekendPath buckets weekdays of each week as 2·week and weekend
// days as 2·week+1 — the "integrate the micro-clusters by weekdays and
// weekends" path of Section III-C.
func WeekdayWeekendPath(day int) (int, bool) {
	week := day / DaysPerWeek
	if day%DaysPerWeek < 5 {
		return 2 * week, true
	}
	return 2*week + 1, true
}

// IntegratePath integrates the stored days along an arbitrary aggregation
// path, returning the macro-clusters per bucket. The day snapshot is taken
// once; integration runs unlocked, bucket by bucket in the order of each
// bucket's first day, so merge IDs are drawn in a fixed order.
func (f *Forest) IntegratePath(path PathFunc) map[int][]*cluster.Cluster {
	buckets := make(map[int][]*cluster.Cluster)
	var order []int
	f.mu.RLock()
	for _, d := range f.order {
		if b, ok := path(d); ok {
			if _, seen := buckets[b]; !seen {
				order = append(order, b)
			}
			buckets[b] = append(buckets[b], f.days[d]...)
		}
	}
	f.mu.RUnlock()
	for _, b := range order {
		buckets[b] = cluster.Integrate(f.gen, buckets[b], f.opts)
	}
	return buckets
}

// Save persists the forest to dir: one cluster file per stored day, the
// level of Section IV that is materialized (every higher level is derived
// and integrated on demand). Each file is one exact cluster set
// (storage.WriteClustersExact). The snapshot is taken under the lock; file
// I/O runs outside it.
//
// Every file is written through the faultfs atomic protocol (temp file →
// fsync → rename → directory fsync), so a crash mid-save leaves each file
// at either its previous or its new contents — never torn — plus at most
// stray *.tmp debris that loads ignore and remove. Week and month level
// files that saves before the day-only layout wrote are removed once every
// day file has committed.
func (f *Forest) Save(dir string) error {
	return f.SaveFS(dir, faultfs.OS{})
}

// SaveFS is Save on an explicit filesystem seam; fault-injection tests
// pass a faultfs.Injector to enumerate crash-points.
func (f *Forest) SaveFS(dir string, fsys faultfs.FS) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	f.mu.RLock()
	days := f.order
	snaps := make([][]*cluster.Cluster, len(days))
	for i, d := range days {
		snaps[i] = f.days[d]
	}
	f.mu.RUnlock()

	m := f.obsm.Load()
	for i, d := range days {
		path := filepath.Join(dir, dayFileName(d))
		af, err := faultfs.CreateAtomic(fsys, path, 0o644)
		if err != nil {
			return fmt.Errorf("forest: %w", err)
		}
		n, err := storage.WriteClustersExact(af, snaps[i])
		if err != nil {
			af.Abort()
			return fmt.Errorf("forest: writing %s: %w", path, err)
		}
		if err := af.Commit(); err != nil {
			return fmt.Errorf("forest: writing %s: %w", path, err)
		}
		if m != nil {
			m.bytesWritten.Add(n)
		}
	}
	// Saves before the day-only layout also wrote derived week-*/month-*
	// level files. They go only after every day file has committed: a crash
	// before this point leaves just files that Load ignores.
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	for _, e := range entries {
		if isStaleLevelFileName(e.Name()) {
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("forest: %w", err)
			}
		}
	}
	return nil
}

// LoadOptions configures Load.
type LoadOptions struct {
	// FS is the filesystem seam; nil means the real filesystem.
	FS faultfs.FS
	// Recover quarantines corrupt cluster files (renamed to *.corrupt,
	// counted in atyp_storage_corrupt_total) and loads the healthy
	// remainder, instead of failing the whole load. The quarantines are
	// reported, never silent: the caller decides whether a forest missing
	// those segments is acceptable.
	Recover bool
	// Registry, when non-nil, observes the load (bytes read, corrupt
	// files) and stays attached to the forest.
	Registry *obs.Registry
	// Sensors, when positive, is the deployment size: a file holding a
	// cluster that names a sensor at or past it fails like a corrupt one.
	Sensors int
}

// LoadReport describes what a load had to do.
type LoadReport struct {
	// Quarantined lists cluster files (base names) that failed integrity
	// checks and were renamed aside with the .corrupt suffix.
	Quarantined []string
}

// Load reads a forest previously saved to dir, restoring the stored days.
// Cluster files carry exact severities and IDs, so the loaded forest
// integrates exactly like the one that was saved; gen is advanced past the
// highest loaded ID so fresh merges never reuse one. Without lo.Recover any
// corrupt day file — or one in a retired format (storage.ErrBadMagic) —
// fails the load. Stray *.tmp files (crash debris) are removed; *.corrupt
// files (previous quarantines) are ignored, and so are the week-*/month-*
// level files older saves wrote: they are derived data and never opened.
func Load(dir string, spec cps.WindowSpec, gen *cluster.IDGen, opts cluster.IntegrateOptions, daysPerMonth int, lo LoadOptions) (*Forest, LoadReport, error) {
	fsys := lo.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f := New(spec, gen, opts, daysPerMonth)
	f.SetObserver(lo.Registry)
	m := f.obsm.Load()
	var report LoadReport
	if err := faultfs.RemoveStrayTemps(fsys, dir); err != nil {
		return nil, report, fmt.Errorf("forest: %w", err)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, report, fmt.Errorf("forest: %w", err)
	}
	read := func(name string) ([]*cluster.Cluster, error) {
		file, err := faultfs.Open(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("forest: %w", err)
		}
		defer file.Close()
		var src io.Reader = file
		cr := &countingReader{r: file}
		if m != nil {
			src = cr
		}
		cs, err := storage.ReadClustersExact(src)
		if m != nil {
			m.bytesRead.Add(cr.n)
		}
		if err != nil {
			return nil, fmt.Errorf("forest: reading %s: %w", name, err)
		}
		for _, c := range cs {
			if lo.Sensors > 0 && !c.WithinSensors(lo.Sensors) {
				return nil, fmt.Errorf("forest: reading %s: cluster %d names a sensor outside the %d-sensor deployment: %w", name, c.ID, lo.Sensors, storage.ErrCorrupt)
			}
		}
		return cs, nil
	}
	for _, e := range entries {
		day, ok := parseDayFileName(e.Name())
		if !ok {
			continue
		}
		cs, err := read(e.Name())
		if err != nil {
			if !lo.Recover {
				return nil, report, err
			}
			if qerr := faultfs.Quarantine(fsys, filepath.Join(dir, e.Name())); qerr != nil {
				return nil, report, fmt.Errorf("forest: quarantining %s: %w", e.Name(), qerr)
			}
			if m != nil {
				m.corrupt.Inc()
			}
			report.Quarantined = append(report.Quarantined, e.Name())
			continue
		}
		for _, c := range cs {
			gen.AdvancePast(c.ID)
		}
		f.setDayLocked(day, cs)
	}
	return f, report, nil
}

// dayFileName names the cluster file of one day.
func dayFileName(day int) string {
	return fmt.Sprintf("day-%05d.clu", day)
}

// parseDayFileName strictly parses a day cluster file name back into its
// day. Strictness matters: crash debris ("day-00001.clu.tmp") and
// quarantined files ("day-00001.clu.corrupt") must not load, and the
// previous fmt.Sscanf matching accepted both.
func parseDayFileName(name string) (day int, ok bool) {
	rest, found := strings.CutSuffix(name, ".clu")
	if !found {
		return 0, false
	}
	digits, found := strings.CutPrefix(rest, "day-")
	if !found || digits == "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// isStaleLevelFileName reports whether name is a week or month level file
// ("week-00003.clu", "month-00001.clu") from a save before the day-only
// layout. Crash debris and quarantined files do not match.
func isStaleLevelFileName(name string) bool {
	rest, found := strings.CutSuffix(name, ".clu")
	if !found {
		return false
	}
	for _, level := range []string{"week-", "month-"} {
		if digits, ok := strings.CutPrefix(rest, level); ok && digits != "" &&
			strings.Trim(digits, "0123456789") == "" {
			return true
		}
	}
	return false
}

// countingReader tracks bytes read through it for the storage counter.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Stats summarizes the forest for diagnostics.
type Stats struct {
	Days       int
	MicroTotal int
}

// Stats returns the stored day and micro-cluster counts.
func (f *Forest) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := Stats{Days: len(f.days)}
	for _, m := range f.days {
		s.MicroTotal += len(m)
	}
	return s
}
