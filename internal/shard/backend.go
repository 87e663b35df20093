package shard

import (
	"context"
	"fmt"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/forest"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/traffic"
)

// Backend answers the shard half of a scattered query: the candidate
// micro-clusters this shard owns that lie in the time range and touch the
// region set, in the shard's local day-ascending, ID-ascending order.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the shard in metrics, spans, EXPLAIN, and partial-
	// result reports. Stable across runs.
	Name() string
	// Candidates runs the candidates filter over the shard's slice.
	Candidates(ctx context.Context, tr cps.TimeRange, regions []geo.RegionID) ([]*cluster.Cluster, error)
	// Ready reports whether the shard can answer queries (nil = ready).
	Ready(ctx context.Context) error
}

// Local serves one shard in-process as a home-filtered view over a full
// forest: it owns its slice by predicate (HomeShard) rather than by physical
// partition, so every shard of a system reads the same forest the unsharded
// path does. HTTP shard servers serve their slice through the same view.
type Local struct {
	name string
	net  *traffic.Network
	// fst resolves the forest per call, so views follow facade-level forest
	// swaps (LoadForest) without rewiring.
	fst   func() *forest.Forest
	m     *Map
	shard int
}

// NewLocalView returns a backend serving shard s of m as a home-filtered
// view over a full forest.
func NewLocalView(name string, net *traffic.Network, fst func() *forest.Forest, m *Map, s int) *Local {
	return &Local{name: name, net: net, fst: fst, m: m, shard: s}
}

// NewLocalViews returns n backends, named shard0..shardN-1, each a
// home-filtered view over fst under the n-shard map of net's grid.
func NewLocalViews(net *traffic.Network, fst func() *forest.Forest, n int) ([]Backend, error) {
	m, err := NewMap(net.Grid, n)
	if err != nil {
		return nil, err
	}
	out := make([]Backend, n)
	for i := range out {
		out[i] = NewLocalView(fmt.Sprintf("shard%d", i), net, fst, m, i)
	}
	return out, nil
}

// Name implements Backend.
func (l *Local) Name() string { return l.name }

// Candidates implements Backend: the shard-side candidates stage —
// micro-clusters in range, owned by this shard, touching the region set —
// in stored (canonical) order.
func (l *Local) Candidates(ctx context.Context, tr cps.TimeRange, regions []geo.RegionID) ([]*cluster.Cluster, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inRegion := make(map[geo.RegionID]bool, len(regions))
	for _, r := range regions {
		inRegion[r] = true
	}
	var out []*cluster.Cluster
	for _, c := range l.fst().MicrosInRange(tr) {
		if l.m.HomeShard(l.net, c) == l.shard && query.Touches(l.net, c, inRegion) {
			out = append(out, c)
		}
	}
	return out, ctx.Err()
}

// Ready implements Backend: an in-process forest is always ready.
func (l *Local) Ready(ctx context.Context) error { return ctx.Err() }
