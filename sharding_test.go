package atypical

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/shard"
	"github.com/cpskit/atypical/internal/storage"
)

// renderRuns serializes every user-facing query surface of a system — the
// three strategies' result shapes plus the rendered rankings and
// descriptions — through Run, with per-request overrides applied. Elapsed is
// deliberately excluded: it is the only non-deterministic Report field.
func renderRuns(t *testing.T, sys *System, mutate func(*QueryRequest)) string {
	t.Helper()
	var b strings.Builder
	for _, strat := range []Strategy{IntegrateAll, Pruned, Guided} {
		req := QueryRequest{FirstDay: 0, Days: 7, Strategy: strat, AllowPartial: true}
		if mutate != nil {
			mutate(&req)
		}
		res, err := sys.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("Run(%v): %v", strat, err)
		}
		fmt.Fprintf(&b, "# %v candidates=%d inputs=%d zones=%d bound=%v macros=%d\n",
			res.Strategy, res.CandidateMicros, res.InputMicros, res.RedZones, res.Bound, len(res.Macros))
		b.WriteString(sys.Ranking(res.Significant))
		for _, c := range res.Significant {
			b.WriteString(sys.Describe(c))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// The tentpole invariant: a sharded system answers byte-identically to the
// unsharded one, for every shard count — the coordinator re-establishes the
// canonical candidate order, so integration sees the same inputs in the same
// order and mints the same IDs.
func TestShardedQueryByteIdentical(t *testing.T) {
	want := renderRuns(t, buildSystem(t), nil)
	if want == "" {
		t.Fatal("unsharded system rendered nothing; byte-identity check is vacuous")
	}
	for _, n := range []int{1, 2, 8} {
		got := renderRuns(t, buildSystem(t, WithShards(n)), nil)
		if got != want {
			t.Fatalf("shards=%d diverged from unsharded:\n%s", n, diffAt(got, want))
		}
	}
}

// BypassShards must serve the identical answer from the coordinator's own
// forest — the debugging escape hatch is equivalence-checked too.
func TestBypassShardsByteIdentical(t *testing.T) {
	want := renderRuns(t, buildSystem(t), nil)
	got := renderRuns(t, buildSystem(t, WithShards(4)), func(req *QueryRequest) {
		req.BypassShards = true
	})
	if got != want {
		t.Fatalf("BypassShards diverged from unsharded:\n%s", diffAt(got, want))
	}
}

// shardServers starts one httptest server per shard, each serving the data
// system's home-filtered view.
func shardServers(t *testing.T, data *System, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for k := range urls {
		urls[k] = serveShard(t, data, k, n)
	}
	return urls
}

// serveShard starts an httptest server serving shard k of n of sys at
// ShardQueryPath plus a trivial /readyz, and returns its URL.
func serveShard(t *testing.T, sys *System, k, n int) string {
	t.Helper()
	h, err := sys.ShardHandler(k, n)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(ShardQueryPath, h)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// The shard matrix: every shard count × both backends must render the
// unsharded bytes. The HTTP half runs real shard servers speaking the exact
// wire codec; the coordinator is a separate System over the same Config, so
// the deterministic ingest keeps cluster IDs aligned across processes.
func TestShardMatrix(t *testing.T) {
	want := renderRuns(t, buildSystem(t), nil)
	for _, n := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("local-%d", n), func(t *testing.T) {
			if got := renderRuns(t, buildSystem(t, WithShards(n)), nil); got != want {
				t.Fatalf("local shards=%d diverged:\n%s", n, diffAt(got, want))
			}
		})
		t.Run(fmt.Sprintf("http-%d", n), func(t *testing.T) {
			data := buildSystem(t)
			urls := shardServers(t, data, n)
			coord := buildSystem(t, WithShardServers(urls...))
			if got := renderRuns(t, coord, nil); got != want {
				t.Fatalf("http shards=%d diverged:\n%s", n, diffAt(got, want))
			}
			if micros := coord.Forest().Stats().MicroTotal; micros != 0 {
				t.Errorf("coordinator holds %d micro-clusters, want 0", micros)
			}
			if got, want := coord.Forest().Version(), data.Forest().Version(); got != want {
				t.Errorf("coordinator forest version %d, data system's %d", got, want)
			}
			sts := coord.ShardsReady(context.Background())
			if len(sts) != n {
				t.Fatalf("ShardsReady reported %d shards, want %d", len(sts), n)
			}
			for _, st := range sts {
				if st.Err != nil {
					t.Errorf("shard %s not ready: %v", st.Shard, st.Err)
				}
			}
		})
	}
}

// Losing a shard after retry must be loud: the Report is flagged Partial and
// atyp_shard_failures_total bumped, Run refuses the partial answer unless
// AllowPartial is set, and losing everything is an error.
func TestShardedPartialFailure(t *testing.T) {
	data := buildSystem(t)
	live := shardServers(t, data, 2)[0]
	deadSrv := httptest.NewServer(http.NewServeMux())
	dead := deadSrv.URL
	deadSrv.Close()

	reg := NewObserver()
	sys := buildSystem(t, WithShardServers(live, dead), WithObserver(reg))

	rep := mustRun(t, sys, QueryRequest{Days: 7, AllowPartial: true})
	if !rep.Partial {
		t.Fatal("losing a shard did not mark the report partial")
	}
	if len(rep.FailedShards) != 1 || rep.FailedShards[0] != "shard1" {
		t.Fatalf("FailedShards = %v, want [shard1]", rep.FailedShards)
	}
	if v, ok := reg.Snapshot().Value("atyp_shard_failures_total", "shard", "shard1"); !ok || v < 1 {
		t.Fatalf("atyp_shard_failures_total{shard=shard1} = %v (ok=%v), want >= 1", v, ok)
	}

	if _, err := sys.Run(context.Background(), QueryRequest{Days: 7}); !errors.Is(err, ErrPartialResult) {
		t.Fatalf("Run without AllowPartial = %v, want ErrPartialResult", err)
	}
	res, err := sys.Run(context.Background(), QueryRequest{Days: 7, AllowPartial: true})
	if err != nil || !res.Partial {
		t.Fatalf("Run with AllowPartial: res=%+v err=%v", res, err)
	}

	allDead := buildSystem(t, WithShardServers(dead, dead))
	if _, err := allDead.Run(context.Background(), QueryRequest{Days: 7, AllowPartial: true}); !errors.Is(err, shard.ErrAllShardsFailed) {
		t.Fatalf("all shards dead = %v, want ErrAllShardsFailed", err)
	}
}

// A shard answering with a CRC-valid frame whose cluster breaks
// cluster.Feature.Valid (NaN, negative, repeated key, +Inf) or names a
// sensor outside the deployment is a failed shard, like a dead one: the
// answer is partial, or ErrPartialResult without AllowPartial, and never
// carries a NaN severity.
func TestShardedInvalidFrame(t *testing.T) {
	data := buildSystem(t)
	outside := cps.SensorID(data.Network().NumSensors() + 5)
	for name, bad := range map[string]*cluster.Cluster{
		"invalid features": {ID: 1, Micros: 1,
			SF: cluster.SpatialFeature{{Key: 5, Sev: Severity(math.NaN())}, {Key: 2, Sev: -1}, {Key: 2, Sev: 3}},
			TF: cluster.TemporalFeature{{Key: 7, Sev: Severity(math.Inf(1))}},
		},
		"sensor outside the deployment": cluster.FromRecords(1, []Record{{Sensor: outside, Window: 7, Severity: 1}}),
	} {
		var frame bytes.Buffer
		if _, err := storage.WriteClustersExact(&frame, []*cluster.Cluster{bad}); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc(ShardQueryPath, func(w http.ResponseWriter, _ *http.Request) { w.Write(frame.Bytes()) })
		srv := httptest.NewServer(mux)
		defer srv.Close()
		sys := buildSystem(t, WithShardServers(shardServers(t, data, 2)[0], srv.URL))

		rep := mustRun(t, sys, QueryRequest{Days: 7, AllowPartial: true})
		if !rep.Partial || len(rep.FailedShards) != 1 || rep.FailedShards[0] != "shard1" {
			t.Fatalf("%s: Partial = %v, FailedShards = %v; want the invalid shard failed", name, rep.Partial, rep.FailedShards)
		}
		for _, c := range rep.Macros {
			if sev := c.Severity(); !sev.Valid() {
				t.Fatalf("%s: answer holds severity %v", name, sev)
			}
		}
		if _, err := sys.Run(context.Background(), QueryRequest{Days: 7}); !errors.Is(err, ErrPartialResult) {
			t.Fatalf("%s: Run without AllowPartial = %v, want ErrPartialResult", name, err)
		}
	}
}

// Scatter-gather under the race detector: concurrent sharded queries across
// strategies while the shard views serve them.
func TestShardedQueryRaceHammer(t *testing.T) {
	sys := buildSystem(t, WithShards(4))
	want := mustRun(t, sys, QueryRequest{Days: 7, AllowPartial: true}).CandidateMicros
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				strat := []Strategy{IntegrateAll, Pruned, Guided}[(g+i)%3]
				res, err := sys.Run(context.Background(), QueryRequest{Days: 7, Strategy: strat, AllowPartial: true})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.CandidateMicros != want {
					t.Errorf("goroutine %d: candidates = %d, want %d", g, res.CandidateMicros, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// In-process shards read the system's one forest, so sharding a system that
// loads its forest from disk needs no re-feed: the views follow the swap and
// answer byte-identically to the unsharded loaded system. Over HTTP every
// shard server and a fresh coordinator each load the saved forest; the
// coordinator keeps none of its clusters and still answers the same bytes.
func TestShardedLoadForestByteIdentical(t *testing.T) {
	saved := buildSystem(t)
	dir := t.TempDir()
	if err := saved.SaveForest(dir); err != nil {
		t.Fatal(err)
	}
	recs := saved.GenerateMonth(0).Atypical
	load := func(options ...Option) *System {
		sys, err := NewSystem(testConfig(), options...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadForestAndRebuild(context.Background(), dir, recs); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	want := renderRuns(t, load(), nil)
	if want == "" {
		t.Fatal("unsharded loaded system rendered nothing; byte-identity check is vacuous")
	}
	for _, n := range []int{1, 2, 8} {
		if got := renderRuns(t, load(WithShards(n)), nil); got != want {
			t.Fatalf("loaded shards=%d diverged from unsharded:\n%s", n, diffAt(got, want))
		}
	}
	for _, n := range []int{1, 2, 8} {
		urls := make([]string, n)
		for k := range urls {
			urls[k] = serveShard(t, load(), k, n)
		}
		coord := load(WithShardServers(urls...))
		if got := renderRuns(t, coord, nil); got != want {
			t.Fatalf("loaded http shards=%d diverged from unsharded:\n%s", n, diffAt(got, want))
		}
		if micros := coord.Forest().Stats().MicroTotal; micros != 0 {
			t.Errorf("loaded coordinator (http shards=%d) holds %d micro-clusters, want 0", n, micros)
		}
	}
}

// streamMonth runs month m of the system's deployment through a stream
// processor and returns the emitted micro-clusters, for IngestClusters.
func streamMonth(t *testing.T, sys *System, m int) []*Cluster {
	t.Helper()
	var out []*Cluster
	p, err := sys.NewStreamProcessor(func(c *Cluster) { out = append(out, c) })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sys.GenerateMonth(m).Atypical.Records() {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return out
}

// clusterIDs matches the minted cluster ID in a rendered description.
var clusterIDs = regexp.MustCompile(`cluster \d+:`)

// A cached sharded answer computed while IngestClusters appends must not
// outlive the append: every shard reads the forest whose version stamps the
// run, so once IngestClusters returns the system answers like an unsharded
// system that ingested the same clusters. Macro IDs are masked — the queries
// racing the ingest mint IDs the reference system never draws.
func TestShardedCacheFreshAfterIngestClusters(t *testing.T) {
	secondWeek := func(req *QueryRequest) { req.FirstDay = 7 }
	ref := buildSystem(t)
	if err := ref.IngestClusters(streamMonth(t, ref, 1)); err != nil {
		t.Fatal(err)
	}
	want := clusterIDs.ReplaceAllString(renderRuns(t, ref, secondWeek), "cluster #:")

	sys := buildSystem(t, WithShards(2), WithQueryCache(8))
	micros := streamMonth(t, sys, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				strat := []Strategy{IntegrateAll, Pruned, Guided}[(g+i)%3]
				if _, err := sys.Run(context.Background(), QueryRequest{FirstDay: 7, Days: 7, Strategy: strat, AllowPartial: true}); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	err := sys.IngestClusters(micros)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := clusterIDs.ReplaceAllString(renderRuns(t, sys, secondWeek), "cluster #:"); got != want {
		t.Fatalf("sharded cached answer after IngestClusters diverged from the unsharded reference:\n%s", diffAt(got, want))
	}
}

// A coordinator stores no micro-clusters, so what needs them locally
// refuses instead of answering from an empty forest.
func TestCoordinatorStoresNoMicros(t *testing.T) {
	data := buildSystem(t)
	coord := buildSystem(t, WithShardServers(shardServers(t, data, 2)...))
	if st := coord.Forest().Stats(); st.MicroTotal != 0 || st.Days != 0 {
		t.Fatalf("coordinator forest stats = %+v, want empty", st)
	}
	if err := coord.SaveForest(t.TempDir()); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("coordinator SaveForest = %v, want ErrInvalidConfig", err)
	}
	if _, err := coord.ShardHandler(0, 2); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("coordinator ShardHandler = %v, want ErrInvalidConfig", err)
	}
	if _, err := coord.Run(context.Background(), QueryRequest{Days: 7, BypassShards: true}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("coordinator BypassShards run = %v, want ErrInvalidRequest", err)
	}
}

// renderModel serializes a prediction model: every pattern with its source
// cluster's ID and micro count, and the top sensors.
func renderModel(m *PredictionModel) string {
	var b strings.Builder
	for _, p := range m.Patterns() {
		fmt.Fprintf(&b, "%d %d %v %v %v\n", p.Source.ID, p.Source.Micros, p.Recurrence, p.SF, p.TF)
	}
	fmt.Fprintf(&b, "top %v\n", m.TopSensors(20))
	return b.String()
}

// A coordinator trains its predictor from micro-clusters gathered off the
// shard servers in the canonical order, so the model — source IDs included —
// equals the unsharded system's.
func TestCoordinatorTrainPredictorEqualsUnsharded(t *testing.T) {
	train := func(sys *System) string {
		m, err := sys.TrainPredictor(0, 7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		return renderModel(m)
	}
	data := buildSystem(t)
	want := train(data)
	if want == "" {
		t.Fatal("unsharded model rendered nothing; equality check is vacuous")
	}
	for _, n := range []int{1, 2} {
		coord := buildSystem(t, WithShardServers(shardServers(t, buildSystem(t), n)...))
		if got := train(coord); got != want {
			t.Fatalf("http shards=%d model diverged from unsharded:\n%s", n, diffAt(got, want))
		}
	}
}

// A cached coordinator must retire a cached answer once a new day is
// ingested, by IngestCtx or by IngestClusters, although it stores none of
// the new micro-clusters: its forest version advances as the append would,
// and the next run is a miss answering like the unsharded data system. Macro
// IDs are masked — the coordinator's cached runs mint IDs the data system
// never draws.
func TestCoordinatorCacheRetiresOnIngest(t *testing.T) {
	newDay := testConfig().DaysPerMonth
	onNewDay := func(req *QueryRequest) { req.FirstDay, req.Days = newDay, 1 }
	dayRecords := func(t *testing.T, sys *System) *RecordSet {
		rs, err := cps.FromSorted(sys.GenerateMonth(1).Atypical.SplitByDay(sys.Spec())[newDay])
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	streamDay := func(t *testing.T, sys *System) []*Cluster {
		var out []*Cluster
		p, err := sys.NewStreamProcessor(func(c *Cluster) { out = append(out, c) })
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range dayRecords(t, sys).Records() {
			if err := p.Observe(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, ingest := range map[string]func(*testing.T, *System) error{
		"IngestCtx": func(t *testing.T, sys *System) error {
			return sys.IngestCtx(context.Background(), dayRecords(t, sys))
		},
		"IngestClusters": func(t *testing.T, sys *System) error {
			return sys.IngestClusters(streamDay(t, sys))
		},
	} {
		t.Run(name, func(t *testing.T) {
			data := buildSystem(t)
			coord := buildSystem(t, WithShardServers(shardServers(t, data, 2)...), WithQueryCache(8))
			before := renderRuns(t, coord, onNewDay)
			if again := renderRuns(t, coord, onNewDay); again != before {
				t.Fatalf("cached rerun diverged:\n%s", diffAt(again, before))
			}
			hits, misses, _ := coord.QueryCacheStats()
			if hits != 3 || misses != 3 {
				t.Fatalf("cache hits/misses = %d/%d before ingest, want 3/3", hits, misses)
			}
			for _, sys := range []*System{data, coord} {
				if err := ingest(t, sys); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := coord.Forest().Version(), data.Forest().Version(); got != want {
				t.Fatalf("coordinator forest version %d after ingest, data system's %d", got, want)
			}
			if micros := coord.Forest().Stats().MicroTotal; micros != 0 {
				t.Fatalf("coordinator holds %d micro-clusters after ingest, want 0", micros)
			}
			want := clusterIDs.ReplaceAllString(renderRuns(t, data, onNewDay), "cluster #:")
			got := clusterIDs.ReplaceAllString(renderRuns(t, coord, onNewDay), "cluster #:")
			if want == clusterIDs.ReplaceAllString(before, "cluster #:") {
				t.Fatal("the new day changed no answer; the retirement check is vacuous")
			}
			if got != want {
				t.Fatalf("coordinator answer after %s diverged from the data system:\n%s", name, diffAt(got, want))
			}
			if hits2, misses2, _ := coord.QueryCacheStats(); hits2 != hits || misses2 != misses+3 {
				t.Fatalf("cache hits/misses = %d/%d after ingest, want %d/%d", hits2, misses2, hits, misses+3)
			}
		})
	}
}

// fuzzConfig is deliberately tiny: the fuzzer builds two full systems per
// execution.
func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.Sensors = 60
	cfg.DaysPerMonth = 5
	return cfg
}

func fuzzSystem(t testing.TB, options ...Option) *System {
	sys, err := NewSystem(fuzzConfig(), options...)
	if err != nil {
		t.Fatal(err)
	}
	mustIngest(t, sys, sys.GenerateMonth(0).Atypical)
	return sys
}

// FuzzShardedQueryEquivalence drives random (shard count, day range,
// strategy) triples through a sharded and an unsharded system and requires
// byte-identical renderings — the fuzzing half of the tentpole invariant.
func FuzzShardedQueryEquivalence(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(5), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(3), uint8(1))
	f.Add(uint8(8), uint8(4), uint8(1), uint8(2))
	f.Add(uint8(5), uint8(3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, nb, firstb, daysb, stratb uint8) {
		n := int(nb)%8 + 1
		firstDay := int(firstb) % 5
		days := int(daysb)%5 + 1
		strat := []Strategy{IntegrateAll, Pruned, Guided}[int(stratb)%3]

		render := func(sys *System) string {
			res, err := sys.Run(context.Background(), QueryRequest{
				FirstDay: firstDay, Days: days, Strategy: strat, AllowPartial: true,
			})
			if err != nil {
				t.Fatalf("n=%d first=%d days=%d strat=%v: %v", n, firstDay, days, strat, err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "candidates=%d inputs=%d zones=%d bound=%v macros=%d\n",
				res.CandidateMicros, res.InputMicros, res.RedZones, res.Bound, len(res.Macros))
			b.WriteString(sys.Ranking(res.Significant))
			for _, c := range res.Significant {
				b.WriteString(sys.Describe(c))
				b.WriteString("\n")
			}
			return b.String()
		}
		want := render(fuzzSystem(t))
		got := render(fuzzSystem(t, WithShards(n)))
		if got != want {
			t.Fatalf("n=%d first=%d days=%d strat=%v diverged:\n%s", n, firstDay, days, strat, diffAt(got, want))
		}
	})
}
