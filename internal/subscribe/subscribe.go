// Package subscribe is the standing-query (CEP) layer over the live stream:
// long-lived subscriptions Q(W, T, δs) evaluated incrementally as
// internal/stream closes micro-clusters, instead of on demand against the
// rebuilt forest. Each registered subscription maintains its own macro-cluster
// state; the moment a micro-cluster's arrival changes the subscription's
// significant set — a macro crossing the bound δs·length(T)·N of Definition 5,
// growing, or falling back below it — a Push lands in the subscriber's buffer.
//
// The correctness anchor is exact batch equivalence: replaying the pushes of a
// standing query over any finite canonical stream (see Replay) reconstructs
// precisely the Significant set the batch engine reports for the same
// QueryRequest after Flush + forest rebuild, bit-identical features included.
// That holds by construction, not by approximation. Similarity is
// (g_s+g_t)/2 with each term at most 1, so at δsim ≥ 0.5 clusters that share
// no sensor or no folded window score at most 0.5 and never merge. Each
// subscription keeps its accepted micros in a cluster.Closure: groups that
// share no sensor-and-window pair of key unions (below δsim 0.5, no key at
// all). The closure is unique because key unions only grow, so it is kept
// incrementally, and batch integration never merges across its groups. An
// arriving micro therefore re-integrates only its own group, in canonical
// batch order — see evaluator.go for the full argument.
//
// Delivery is strictly non-blocking: a slow subscriber never stalls Offer (and
// therefore never stalls stream ingest). A push that finds the subscriber's
// buffer full is counted (atyp_sub_dropped_total, Subscription.Dropped) and
// the next push that does fit carries Gap=true, telling the consumer its
// replayed state may be stale and a batch resync is in order.
package subscribe

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/obs"
	"github.com/cpskit/atypical/internal/query"
	"github.com/cpskit/atypical/internal/traffic"
)

// ErrRegistryFull reports that Register would exceed Config.MaxSubscribers.
// The facade's ErrTooManySubscribers aliases it, so callers branch with
// errors.Is at either layer.
var ErrRegistryFull = errors.New("subscribe: subscriber limit reached")

// ErrUnsupportedStrategy reports a strategy standing queries cannot evaluate
// incrementally. Guided is the one rejected case: its red zones come from the
// mutable bottom-up severity index, so a push decided against yesterday's
// zones could disagree with the batch answer computed against today's —
// violating the equivalence anchor this package is built on.
var ErrUnsupportedStrategy = errors.New("subscribe: strategy not supported for standing queries")

// ErrInvalidConfig reports a Config that NewRegistry cannot accept.
var ErrInvalidConfig = errors.New("subscribe: invalid config")

// DefaultBuffer is the per-subscriber push buffer capacity when Config.Buffer
// is unset.
const DefaultBuffer = 64

// Config parameterizes a Registry.
type Config struct {
	// Net is the deployment topology (region membership for the W filter and
	// the significance bound's N).
	Net *traffic.Network
	// Spec is the window spec; PerDay() anchors day assignment and the Pru
	// day-scale bound.
	Spec cps.WindowSpec
	// Options are the integration options the batch engine uses — the
	// evaluator must integrate under the exact same δsim/balance/period or
	// the equivalence anchor breaks.
	Options cluster.IntegrateOptions
	// MaxSubscribers caps Register; 0 or negative means unlimited.
	MaxSubscribers int
	// Buffer is the per-subscriber push buffer capacity; <= 0 selects
	// DefaultBuffer.
	Buffer int
}

// Push is one standing-query notification: the complete current significant
// set of one macro-cluster component. Components are identified by stable
// uint64 ids; when components merge, the surviving id is the smallest and the
// rest are listed in Absorbed. An empty Clusters slice is a retraction — the
// component no longer holds a significant macro. Replay folds a push sequence
// back into the query's full answer.
type Push struct {
	// Seq numbers the pushes of one subscription from 1, without holes on the
	// sender side (a dropped push consumes its Seq; the gap marker on the next
	// delivered push is the consumer's signal).
	Seq uint64
	// Component identifies the macro-cluster component this push describes.
	Component uint64
	// Absorbed lists component ids merged into Component since the last
	// delivered push; the consumer drops their state entries.
	Absorbed []uint64
	// Gap reports that at least one earlier push was dropped at a full
	// buffer: replayed state may be stale until a batch resync.
	Gap bool
	// Ts is the send timestamp (push latency = receive time − Ts).
	Ts time.Time
	// Clusters is the component's current significant set (possibly empty —
	// a retraction). The clusters are immutable; do not mutate.
	Clusters []*cluster.Cluster
}

// Subscription is one registered standing query. Pushes arrive on Pushes();
// the channel is never closed (Done signals teardown instead, so a racing
// Offer can never panic on send).
type Subscription struct {
	id   uint64
	ch   chan Push
	done chan struct{}

	dropped   atomic.Uint64
	delivered atomic.Uint64
	gaps      atomic.Uint64

	// seq and gapPending are guarded by the owning registry's mu.
	seq        uint64
	gapPending bool

	ev *evaluator
}

// ID returns the registry-unique subscription id.
func (s *Subscription) ID() uint64 { return s.id }

// Pushes returns the receive side of the subscription's buffer.
func (s *Subscription) Pushes() <-chan Push { return s.ch }

// Done is closed by Unregister; receivers select on it alongside Pushes.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Dropped returns how many pushes were dropped at a full buffer. Safe for
// concurrent use.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Delivered returns how many pushes were handed to the subscriber's buffer.
// Safe for concurrent use.
func (s *Subscription) Delivered() uint64 { return s.delivered.Load() }

// Gaps returns how many delivered pushes carried the gap marker — each one
// announces at least one earlier drop. Safe for concurrent use.
func (s *Subscription) Gaps() uint64 { return s.gaps.Load() }

// subObs bundles the registry's pre-resolved metric handles.
type subObs struct {
	active  *obs.Gauge
	pushes  *obs.Counter
	dropped *obs.Counter
	eval    *obs.Histogram
	group   *obs.Histogram
}

// Registry holds the live subscriptions and fans stream-emitted
// micro-clusters out to their evaluators. Register/Unregister are safe from
// any goroutine; Offer is serialized with them internally, so wiring it as a
// stream emit hook (single-writer, like the stream processor itself) needs no
// extra locking.
type Registry struct {
	cfg Config

	mu     sync.Mutex
	subs   map[uint64]*Subscription
	lastID uint64

	obsm atomic.Pointer[subObs]
}

// NewRegistry validates cfg and returns an empty registry.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("%w: Config.Net is required", ErrInvalidConfig)
	}
	if cfg.Options.SimThreshold <= 0 {
		return nil, fmt.Errorf("%w: Config.Options.SimThreshold must be positive, got %v", ErrInvalidConfig, cfg.Options.SimThreshold)
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	return &Registry{cfg: cfg, subs: make(map[uint64]*Subscription)}, nil
}

// SetObserver registers the subscription metric families on r and arms the
// registry; a nil registry disarms it.
func (r *Registry) SetObserver(reg *obs.Registry) {
	if reg == nil {
		r.obsm.Store(nil)
		return
	}
	r.obsm.Store(&subObs{
		active: reg.Gauge("atyp_sub_active",
			"standing-query subscriptions currently registered"),
		pushes: reg.Counter("atyp_sub_pushes_total",
			"standing-query pushes delivered to subscriber buffers"),
		dropped: reg.Counter("atyp_sub_dropped_total",
			"standing-query pushes dropped at full subscriber buffers"),
		eval: reg.Histogram("atyp_sub_eval_seconds",
			"incremental evaluation time per offered micro-cluster, all subscriptions",
			obs.ExpBuckets(1e-6, 4, 12)),
		group: reg.Histogram("atyp_sub_group_micros",
			"micro-clusters re-integrated per offer and subscription: the size of the arriving micro's closure group",
			obs.ExpBuckets(1, 2, 14)),
	})
}

// Register adds a standing query and returns its subscription. The query must
// already be resolved (regions expanded, δs defaulted) — the same shape the
// batch engine runs — so the equivalence anchor compares like with like.
// Strategies: All and Pru; Gui returns ErrUnsupportedStrategy (wrapped), and
// anything else ErrUnknownStrategy.
func (r *Registry) Register(q query.Query, strat query.Strategy) (*Subscription, error) {
	switch strat {
	case query.All, query.Pru:
	case query.Gui:
		return nil, fmt.Errorf("%w: Guided red zones track the mutable severity index, which incremental pushes cannot replay", ErrUnsupportedStrategy)
	default:
		return nil, fmt.Errorf("%w %v", query.ErrUnknownStrategy, strat)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.MaxSubscribers > 0 && len(r.subs) >= r.cfg.MaxSubscribers {
		return nil, fmt.Errorf("%w: %d active", ErrRegistryFull, len(r.subs))
	}
	r.lastID++
	s := &Subscription{
		id:   r.lastID,
		ch:   make(chan Push, r.cfg.Buffer),
		done: make(chan struct{}),
		ev:   newEvaluator(r.cfg, q, strat),
	}
	r.subs[s.id] = s
	if m := r.obsm.Load(); m != nil {
		m.active.Set(float64(len(r.subs)))
	}
	return s, nil
}

// Unregister removes the subscription and closes its Done channel, reporting
// whether the id was registered. The push channel stays open (buffered pushes
// remain readable); Done is the teardown signal.
func (r *Registry) Unregister(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.subs[id]
	if !ok {
		return false
	}
	delete(r.subs, id)
	close(s.done)
	if m := r.obsm.Load(); m != nil {
		m.active.Set(float64(len(r.subs)))
	}
	return true
}

// Active returns the number of registered subscriptions.
func (r *Registry) Active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Offer feeds one stream-emitted micro-cluster to every subscription,
// delivering whatever pushes the arrival triggers. It never blocks on a
// subscriber: a full buffer drops the push with explicit accounting. Wire it
// as (or into) the stream processor's Emit hook.
func (r *Registry) Offer(c *cluster.Cluster) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.subs) == 0 {
		return
	}
	m := r.obsm.Load()
	start := time.Now()
	for _, s := range r.subs {
		p, group, ok := s.ev.offer(c)
		if group > 0 && m != nil {
			m.group.Observe(float64(group))
		}
		if !ok {
			continue
		}
		s.seq++
		p.Seq = s.seq
		p.Ts = time.Now()
		r.deliverLocked(m, s, p)
	}
	if m != nil {
		m.eval.ObserveSince(start)
	}
}

// deliverLocked hands p to the subscriber without ever blocking. Callers hold
// r.mu.
func (r *Registry) deliverLocked(m *subObs, s *Subscription, p Push) {
	p.Gap = s.gapPending
	select {
	case <-s.done:
		// Unregistered under our feet; the evaluator entry is already gone
		// from subs on the next Offer, this push just evaporates.
	case s.ch <- p:
		s.gapPending = false
		s.delivered.Add(1)
		if p.Gap {
			s.gaps.Add(1)
		}
		if m != nil {
			m.pushes.Inc()
		}
	default:
		// Buffer full: drop, count, and mark the gap. The absorbed ids ride
		// back into the component's pending set so the next delivered push
		// re-announces them — without that, the consumer's replay state would
		// keep entries for components that no longer exist.
		s.dropped.Add(1)
		s.gapPending = true
		s.ev.requeueAbsorbed(p.Component, p.Absorbed)
		if m != nil {
			m.dropped.Inc()
		}
	}
}

// Replay folds a subscription's push sequence back into the standing query's
// current answer: per-component significant sets, absorbed components
// dropped. After the stream flushes, Significant() of a gap-free replay
// equals the batch engine's Significant set for the same query — the
// package's correctness anchor.
type Replay struct {
	state map[uint64][]*cluster.Cluster
	// Gaps counts pushes that carried the gap marker; any nonzero value
	// means the state may be stale and a batch resync is needed.
	Gaps int
}

// NewReplay returns an empty replay state.
func NewReplay() *Replay {
	return &Replay{state: make(map[uint64][]*cluster.Cluster)}
}

// Apply folds one push into the state.
func (r *Replay) Apply(p Push) {
	if p.Gap {
		r.Gaps++
	}
	for _, id := range p.Absorbed {
		delete(r.state, id)
	}
	r.state[p.Component] = p.Clusters
}

// Significant returns the union of the per-component significant sets,
// ordered by component id so repeated calls render identically.
func (r *Replay) Significant() []*cluster.Cluster {
	ids := make([]uint64, 0, len(r.state))
	for id := range r.state {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var out []*cluster.Cluster
	for _, id := range ids {
		out = append(out, r.state[id]...)
	}
	return out
}
