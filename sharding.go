package atypical

import (
	"context"
	"fmt"
	"net/http"

	"github.com/cpskit/atypical/internal/shard"
)

// Sharding. A System normally answers queries from its single in-process
// forest. WithShards and WithShardServers partition the candidates stage
// across shards instead: a deterministic district-granular shard map over
// the region grid assigns every micro-cluster a home shard, each shard
// answers "my candidates in range touching W", and the coordinator restores
// the canonical candidate order before the unchanged strategy pipeline runs
// once at the coordinator. Answers are byte-identical to the unsharded ones
// — see DESIGN.md "Sharding & scatter-gather" for the argument.

// ShardQueryPath is the URL path shard servers mount their ShardHandler at
// and WithShardServers coordinators POST to.
const ShardQueryPath = shard.QueryPath

// WithShards partitions query serving across n in-process shards. Each shard
// is a home-filtered view over the system's one forest — the same view a
// ShardHandler serves — so sharding stores nothing per shard: queries
// scatter the candidates stage across the views and gather it back in the
// canonical order.
func WithShards(n int) Option {
	return func(o *systemOptions) { o.shards = n }
}

// WithShardServers routes query serving to remote shard processes, one URL
// per shard (e.g. "http://host:9001"), each serving shard.QueryPath behind
// its hardened serve path — an atypserve started with -shardserve k/n over
// the same Config. Remote shards answer the candidates stage; Gui's red
// zones and the integration stages run at the coordinator.
//
// The coordinator must ingest the identical deterministic stream as the
// shard servers, but it keeps only what its queries read: the severity
// index (red zones), the ID generator's high-water mark (merge IDs stay
// aligned with the shard servers) and the forest's version counter (answer
// cache stamps, EXPLAIN). It stores no micro-clusters, on ingest or on a
// LoadForest, so:
//
//   - Forest().Stats() reports 0 micros;
//   - TrainPredictor gathers its micro-clusters from the shard servers, in
//     the canonical order, so the model equals the unsharded one;
//   - SaveForest, ShardHandler and QueryRequest.BypassShards have no local
//     micro-clusters to work from and return errors (save and serve the
//     shard servers' forests instead).
//
// A shard lost after one retry makes the answer explicitly partial — see
// QueryRequest.AllowPartial and the atyp_shard_failures_total metric.
func WithShardServers(urls ...string) Option {
	return func(o *systemOptions) { o.shardURLs = append([]string(nil), urls...) }
}

// WithShardClient overrides the HTTP client used by WithShardServers
// backends (timeouts, transports; tests).
func WithShardClient(c *http.Client) Option {
	return func(o *systemOptions) { o.shardClient = c }
}

// wireShards applies the shard options during NewSystem: builds the local
// views or HTTP backends and the coordinator the engine scatters through.
func (s *System) wireShards(o *systemOptions) error {
	if o.shards == 0 && len(o.shardURLs) == 0 {
		return nil
	}
	if o.shards != 0 && len(o.shardURLs) > 0 {
		return fmt.Errorf("%w: WithShards and WithShardServers are mutually exclusive", ErrInvalidConfig)
	}
	n := o.shards
	if n == 0 {
		n = len(o.shardURLs)
	}
	if n < 1 {
		return fmt.Errorf("%w: shard count must be at least 1, got %d", ErrInvalidConfig, n)
	}
	var backends []shard.Backend
	if o.shards != 0 {
		views, err := shard.NewLocalViews(s.net, s.Forest, n)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		backends = views
	} else {
		for i, u := range o.shardURLs {
			h := shard.NewHTTP(fmt.Sprintf("shard%d", i), u, o.shardClient)
			backends = append(backends, checkedShard{Backend: h, sensors: s.net.NumSensors()})
		}
		s.remote = true
	}
	s.coord = shard.NewCoordinator(backends, o.registry)
	return nil
}

// checkedShard holds a remote shard's answer to the deployment: a cluster
// naming a sensor outside it means the shard runs another Config, so the
// call fails and the coordinator counts a failed shard instead of indexing
// past Network.Sensors.
type checkedShard struct {
	shard.Backend
	sensors int
}

func (b checkedShard) Candidates(ctx context.Context, tr TimeRange, regions []RegionID) ([]*Cluster, error) {
	cs, err := b.Backend.Candidates(ctx, tr, regions)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		if !c.WithinSensors(b.sensors) {
			return nil, fmt.Errorf("%w: shard %s: cluster %d names a sensor outside the %d-sensor deployment", ErrInvalidConfig, b.Name(), c.ID, b.sensors)
		}
	}
	return cs, nil
}

// ShardStatus is one shard's readiness report, as surfaced by ShardsReady
// and atypserve's /readyz.
type ShardStatus struct {
	// Shard is the shard's stable name (shard0..shardN-1).
	Shard string
	// Err is nil when the shard is ready to answer.
	Err error
}

// ShardsReady probes every shard's readiness concurrently. It returns nil
// when the system is not sharded.
func (s *System) ShardsReady(ctx context.Context) []ShardStatus {
	if s == nil || s.coord == nil {
		return nil
	}
	sts := s.coord.Ready(s.armSpans(ctx))
	out := make([]ShardStatus, len(sts))
	for i, st := range sts {
		out[i] = ShardStatus{Shard: st.Shard, Err: st.Err}
	}
	return out
}

// NumShards reports the configured shard fan-out (0 when unsharded).
func (s *System) NumShards() int {
	if s == nil || s.coord == nil {
		return 0
	}
	return s.coord.NumShards()
}

// ShardHandler returns the HTTP handler a shard server mounts at
// shard.QueryPath to serve shard k of n: a home-filtered view over this
// system's forest speaking the exact wire codec. The serving system must be
// built from the same Config as the coordinator (same deployment, same
// deterministic ingest) so cluster IDs line up; it follows LoadForest swaps
// automatically.
func (s *System) ShardHandler(k, n int) (http.Handler, error) {
	if k < 0 || n < 1 || k >= n {
		return nil, fmt.Errorf("%w: shard index %d of %d", ErrInvalidConfig, k, n)
	}
	if s.remote {
		return nil, fmt.Errorf("%w: a WithShardServers coordinator stores no micro-clusters to serve", ErrInvalidConfig)
	}
	m, err := shard.NewMap(s.net.Grid, n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	b := shard.NewLocalView(fmt.Sprintf("shard%d", k), s.net, s.Forest, m, k)
	return shard.NewHandler(b), nil
}
