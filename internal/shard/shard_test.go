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

// stack is the offline pipeline state the shard tests partition: a global
// forest over a deterministic synthetic month, plus everything needed to
// build per-shard forests of the same stream.
type stack struct {
	net   *traffic.Network
	spec  cps.WindowSpec
	f     *forest.Forest
	idgen *cluster.IDGen
	opts  cluster.IntegrateOptions
	days  int
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
	return &stack{net: net, spec: spec, f: f, idgen: idgen, opts: opts, days: days}
}

// cityQuery returns the whole-grid, whole-range query the scatter tests use.
func (s *stack) cityQuery() query.Query {
	return query.CityQuery(s.net, s.spec, 0, s.days, 0.05)
}

// newSet builds an n-shard Set fed with the stack's full stream.
func (s *stack) newSet(t testing.TB, n int) (*shard.Map, *shard.Set) {
	t.Helper()
	m, err := shard.NewMap(s.net.Grid, n)
	if err != nil {
		t.Fatal(err)
	}
	set := shard.NewSet(m, s.net, s.spec, s.idgen, s.opts, s.days)
	for _, day := range s.f.Days() {
		set.AppendDay(day, s.f.Day(day))
	}
	return m, set
}

func TestMapDeterministicCoveringDisjoint(t *testing.T) {
	grid := traffic.GenerateNetwork(traffic.ScaledConfig(150)).Grid
	d := grid.NumDistricts()
	for _, n := range []int{1, 2, 3, 8, d, d + 5, 64} {
		m1, err := shard.NewMap(grid, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		m2, _ := shard.NewMap(grid, n)
		if m1.NumShards() != n {
			t.Fatalf("n=%d: NumShards=%d", n, m1.NumShards())
		}
		if want := n > d; m1.Hashed() != want {
			t.Errorf("n=%d (districts=%d): Hashed=%v, want %v", n, d, m1.Hashed(), want)
		}
		seen := make([]bool, grid.NumRegions())
		for s := 0; s < n; s++ {
			for _, r := range m1.Regions(s) {
				if seen[r] {
					t.Fatalf("n=%d: region %d assigned twice", n, r)
				}
				seen[r] = true
				if m1.ShardOf(r) != s {
					t.Fatalf("n=%d: Regions(%d) and ShardOf(%d) disagree", n, s, r)
				}
			}
		}
		for r, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: region %d unassigned", n, r)
			}
			if m1.ShardOf(geo.RegionID(r)) != m2.ShardOf(geo.RegionID(r)) {
				t.Fatalf("n=%d: two maps over the same grid disagree on region %d", n, r)
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

func TestSetRoutesEverythingToItsHomeShard(t *testing.T) {
	st := buildStack(t, 150, 3)
	m, set := st.newSet(t, 3)
	q := st.cityQuery()
	total := 0
	for i := 0; i < m.NumShards(); i++ {
		for _, c := range set.Forest(i).MicrosInRange(q.Time) {
			total++
			if h := m.HomeShard(st.net, c); h != i {
				t.Fatalf("cluster %d stored on shard %d, home %d", c.ID, i, h)
			}
		}
	}
	want := len(st.f.MicrosInRange(q.Time))
	if total != want || want == 0 {
		t.Fatalf("shards hold %d micros, global forest %d", total, want)
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
		_, set := st.newSet(t, n)
		coord := shard.NewCoordinator(set.Backends(), nil)
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
			// Local backends share pointers with the forest: identity, not
			// just equality.
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
