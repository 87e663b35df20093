package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/shard"
	"github.com/cpskit/atypical/internal/traffic"
)

// stack is the offline pipeline state the shard tests partition: a forest
// over a deterministic synthetic month, which every shard view reads.
type stack struct {
	net  *traffic.Network
	spec cps.WindowSpec
	f    *forest.Forest
	days int
}

// buildStack extracts a deterministic month of micro-clusters into a global
// forest (the internal/query pipeline fixture, minus the severity cube).
func buildStack(t testing.TB, sensors, days int) *stack {
	t.Helper()
	net := traffic.GenerateNetwork(traffic.ScaledConfig(sensors))
	spec := cps.DefaultSpec()
	cfg := gen.DefaultConfig(net)
	cfg.DaysPerMonth = days
	g, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Month(0)

	locs := make([]geo.Point, net.NumSensors())
	for i, s := range net.Sensors {
		locs[i] = s.Loc
	}
	neighbors := index.NewNeighborIndex(locs, 1.5).NeighborLists()
	maxGap := cluster.MaxWindowGap(15*time.Minute, spec.Width)

	idgen := &cluster.IDGen{}
	opts := cluster.IntegrateOptions{SimThreshold: 0.5, Balance: cluster.Arithmetic, Period: cps.Window(spec.PerDay())}
	f := forest.New(spec, idgen, opts, days)
	cps.ForEachDay(ds.Atypical.SplitByDay(spec), func(day int, recs []cps.Record) {
		f.AddDay(day, cluster.ExtractMicroClusters(idgen, recs, neighbors, maxGap))
	})
	return &stack{net: net, spec: spec, f: f, days: days}
}

// cityQuery returns the whole-grid, whole-range query the scatter tests use.
func (s *stack) cityQuery() query.Query {
	return query.CityQuery(s.net, s.spec, 0, s.days, 0.05)
}

// views serves the stack's forest as n home-filtered shard views.
func (s *stack) views(t testing.TB, n int) []shard.Backend {
	t.Helper()
	vs, err := shard.NewLocalViews(s.net, func() *forest.Forest { return s.f }, n)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// The map is a pure function of (grid, n) that gives every region exactly
// one shard in [0, n), district-granular: the contiguous geo split while
// n <= districts (every shard non-empty), the hash fallback beyond.
func TestMapDeterministicCoveringDisjoint(t *testing.T) {
	grid := traffic.GenerateNetwork(traffic.ScaledConfig(150)).Grid
	d := grid.NumDistricts()
	inDistricts := 0
	for dist := 0; dist < d; dist++ {
		inDistricts += len(grid.DistrictRegions(dist))
	}
	if inDistricts != grid.NumRegions() {
		t.Fatalf("districts hold %d regions, grid %d: ShardOf cannot cover the grid", inDistricts, grid.NumRegions())
	}
	for _, n := range []int{1, 2, 3, 8, d, d + 5, 64} {
		m1, err := shard.NewMap(grid, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		m2, _ := shard.NewMap(grid, n)
		used := make([]bool, n)
		for dist := 0; dist < d; dist++ {
			regions := grid.DistrictRegions(dist)
			want := m1.ShardOf(regions[0])
			if n <= d && want != dist*n/d {
				t.Fatalf("n=%d (districts=%d): district %d on shard %d, geo split puts it on %d", n, d, dist, want, dist*n/d)
			}
			if want < 0 || want >= n {
				t.Fatalf("n=%d: district %d on shard %d, outside [0, %d)", n, dist, want, n)
			}
			used[want] = true
			for _, r := range regions {
				if m1.ShardOf(r) != want {
					t.Fatalf("n=%d: district %d split across shards %d and %d", n, dist, want, m1.ShardOf(r))
				}
				if m2.ShardOf(r) != want {
					t.Fatalf("n=%d: two maps over the same grid disagree on region %d", n, r)
				}
			}
		}
		for s, ok := range used {
			if n <= d && !ok {
				t.Fatalf("n=%d (districts=%d): geo split left shard %d empty", n, d, s)
			}
		}
	}
	if _, err := shard.NewMap(grid, 0); !errors.Is(err, shard.ErrBadConfig) {
		t.Fatalf("NewMap(0) = %v, want ErrBadConfig", err)
	}
}

func TestMapNoRegionAndOutOfRange(t *testing.T) {
	grid := traffic.GenerateNetwork(traffic.ScaledConfig(120)).Grid
	m, err := shard.NewMap(grid, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ShardOf(geo.NoRegion); got != 0 {
		t.Errorf("ShardOf(NoRegion) = %d, want 0", got)
	}
	if got := m.ShardOf(geo.RegionID(grid.NumRegions() + 7)); got != 0 {
		t.Errorf("ShardOf(out of range) = %d, want 0", got)
	}
}

// The views partition the forest: every micro in range is a candidate of
// exactly one view, the one its HomeShard names.
func TestViewsPartitionByHomeShard(t *testing.T) {
	st := buildStack(t, 150, 3)
	q := st.cityQuery()
	all := st.f.MicrosInRange(q.Time)
	if len(all) == 0 {
		t.Fatal("no micros in range; partition check is vacuous")
	}
	for _, n := range []int{1, 2, 3, 8, st.net.Grid.NumDistricts() + 5} {
		m, err := shard.NewMap(st.net.Grid, n)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[*cluster.Cluster]int, len(all))
		for i, v := range st.views(t, n) {
			cs, err := v.Candidates(context.Background(), q.Time, q.Regions)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for _, c := range cs {
				if prev, dup := owner[c]; dup {
					t.Fatalf("n=%d: cluster %d served by views %d and %d", n, c.ID, prev, i)
				}
				owner[c] = i
				if h := m.HomeShard(st.net, c); h != i {
					t.Fatalf("n=%d: cluster %d served by view %d, home %d", n, c.ID, i, h)
				}
			}
		}
		for _, c := range all {
			if _, ok := owner[c]; !ok {
				t.Fatalf("n=%d: cluster %d in range served by no view", n, c.ID)
			}
		}
	}
}

// expectedCandidates is the unsharded candidates stage: micros in range
// touching the region set.
func expectedCandidates(st *stack, q query.Query) []*cluster.Cluster {
	inRegion := map[geo.RegionID]bool{}
	for _, r := range q.Regions {
		inRegion[r] = true
	}
	var out []*cluster.Cluster
	for _, c := range st.f.MicrosInRange(q.Time) {
		if query.Touches(st.net, c, inRegion) {
			out = append(out, c)
		}
	}
	return out
}

func TestCoordinatorGatherEqualsUnshardedCandidates(t *testing.T) {
	st := buildStack(t, 150, 3)
	q := st.cityQuery()
	want := expectedCandidates(st, q)
	if len(want) == 0 {
		t.Fatal("no candidates; workload broken")
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	for _, n := range []int{1, 2, 8} {
		coord := shard.NewCoordinator(st.views(t, n), nil)
		results, info, err := coord.Scatter(context.Background(), q.Time, q.Regions)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(info.Failed) != 0 || info.Shards != n {
			t.Fatalf("n=%d: info = %+v", n, info)
		}
		var got []*cluster.Cluster
		for _, r := range results {
			got = append(got, r.Candidates...)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
		if len(got) != len(want) {
			t.Fatalf("n=%d: gathered %d candidates, want %d", n, len(got), len(want))
		}
		for i := range got {
			// Views serve the forest's own pointers: identity, not just
			// equality.
			if got[i] != want[i] {
				t.Fatalf("n=%d: candidate %d differs", n, i)
			}
		}
	}
}

// flaky is a fake Backend failing its first `fails` Candidates calls.
type flaky struct {
	name  string
	fails int
	calls int
}

func (f *flaky) Name() string { return f.name }

func (f *flaky) Candidates(ctx context.Context, tr cps.TimeRange, regions []geo.RegionID) ([]*cluster.Cluster, error) {
	f.calls++
	if f.calls <= f.fails {
		return nil, fmt.Errorf("simulated failure %d", f.calls)
	}
	return nil, nil
}

func (f *flaky) Ready(ctx context.Context) error {
	if f.fails > 0 && f.calls <= f.fails {
		return errors.New("not ready")
	}
	return nil
}

func TestCoordinatorRetryPartialAndAllFailed(t *testing.T) {
	reg := obs.NewRegistry()
	good := &flaky{name: "shard0"}
	retried := &flaky{name: "shard1", fails: 1}
	dead := &flaky{name: "shard2", fails: 1 << 30}
	coord := shard.NewCoordinator([]shard.Backend{good, retried, dead}, reg)

	_, info, err := coord.Scatter(context.Background(), cps.TimeRange{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Failed) != 1 || info.Failed[0] != "shard2" {
		t.Fatalf("Failed = %v, want [shard2]", info.Failed)
	}
	snap := reg.Snapshot()
	counter := func(name, shardName string) float64 {
		v, _ := snap.Value(name, "shard", shardName)
		return v
	}
	for _, tc := range []struct {
		name, shard string
		want        float64
	}{
		{"atyp_shard_queries_total", "shard0", 1},
		{"atyp_shard_queries_total", "shard1", 1},
		{"atyp_shard_queries_total", "shard2", 1},
		{"atyp_shard_retries_total", "shard0", 0},
		{"atyp_shard_retries_total", "shard1", 1},
		{"atyp_shard_retries_total", "shard2", 1},
		{"atyp_shard_failures_total", "shard1", 0},
		{"atyp_shard_failures_total", "shard2", 1},
	} {
		if got := counter(tc.name, tc.shard); got != tc.want {
			t.Errorf("%s{shard=%s} = %v, want %v", tc.name, tc.shard, got, tc.want)
		}
	}

	allDead := shard.NewCoordinator([]shard.Backend{
		&flaky{name: "a", fails: 1 << 30}, &flaky{name: "b", fails: 1 << 30},
	}, nil)
	if _, _, err := allDead.Scatter(context.Background(), cps.TimeRange{}, nil); !errors.Is(err, shard.ErrAllShardsFailed) {
		t.Fatalf("all-dead scatter = %v, want ErrAllShardsFailed", err)
	}
	if _, _, err := shard.NewCoordinator(nil, nil).Scatter(context.Background(), cps.TimeRange{}, nil); !errors.Is(err, shard.ErrAllShardsFailed) {
		t.Fatalf("zero-backend scatter = %v, want ErrAllShardsFailed", err)
	}

	sts := coord.Ready(context.Background())
	if len(sts) != 3 || sts[0].Err != nil || sts[1].Err != nil || sts[2].Err == nil {
		t.Fatalf("Ready = %+v", sts)
	}
}

func TestHTTPBackendRoundTripAndFailure(t *testing.T) {
	st := buildStack(t, 150, 3)
	q := st.cityQuery()
	m, err := shard.NewMap(st.net.Grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	view := shard.NewLocalView("shard0", st.net, func() *forest.Forest { return st.f }, m, 0)
	mux := http.NewServeMux()
	mux.Handle(shard.QueryPath, shard.NewHandler(view))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	h := shard.NewHTTP("shard0", srv.URL, srv.Client())
	got, err := h.Candidates(context.Background(), q.Time, q.Regions)
	if err != nil {
		t.Fatal(err)
	}
	want, err := view.Candidates(context.Background(), q.Time, q.Regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("shard 0 owns no candidates; round-trip check is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("wire returned %d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Micros != want[i].Micros ||
			len(got[i].SF) != len(want[i].SF) || len(got[i].TF) != len(want[i].TF) {
			t.Fatalf("candidate %d shape differs over the wire", i)
		}
		if math.Float64bits(float64(got[i].Severity())) != math.Float64bits(float64(want[i].Severity())) {
			t.Fatalf("candidate %d severity not bit-exact over the wire", i)
		}
	}
	if err := h.Ready(context.Background()); err != nil {
		t.Fatalf("Ready = %v", err)
	}

	// A server without the endpoint (404) classifies as unavailable; a dead
	// server errors without the sentinel.
	bare := httptest.NewServer(http.NewServeMux())
	hMissing := shard.NewHTTP("shardX", bare.URL, bare.Client())
	if _, err := hMissing.Candidates(context.Background(), q.Time, nil); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("missing endpoint = %v, want ErrUnavailable", err)
	}
	if err := hMissing.Ready(context.Background()); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("missing readyz = %v, want ErrUnavailable", err)
	}
	bare.Close()
	if _, err := hMissing.Candidates(context.Background(), q.Time, nil); err == nil {
		t.Fatal("dead server answered")
	}
}
