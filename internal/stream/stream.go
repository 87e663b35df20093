// Package stream maintains atypical events incrementally over an ordered
// record stream — the online counterpart of Algorithm 1 for deployments
// where micro-clusters must be available as events close, rather than after
// a batch scan ("to facilitate scalable, flexible and online analysis",
// Section I).
//
// The Processor consumes records in canonical (window, sensor) order. Each
// record either joins an open event (it is direct atypical related to one of
// the event's recent records), bridges several open events into one, or
// opens a new event. An event closes — and its micro-cluster is emitted —
// once no record can relate to it anymore (the stream has advanced more than
// δt past its last record). For any finite canonical stream, the emitted
// micro-clusters partition the records exactly as the batch extraction does;
// see the equivalence property test.
package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/obs"
)

// event is one open atypical event under construction.
type event struct {
	// forward points to the event this one was merged into; nil while the
	// event is live. Chains are collapsed on lookup (union-find style).
	forward *event
	records []cps.Record
	// last is the most recent window of any record in the event.
	last cps.Window
}

// find resolves merge forwarding with path compression.
func (e *event) find() *event {
	root := e
	for root.forward != nil {
		root = root.forward
	}
	for e.forward != nil {
		next := e.forward
		e.forward = root
		e = next
	}
	return root
}

// Config parameterizes the processor.
type Config struct {
	// Neighbors lists, per sensor, the sensors strictly within δd (from
	// index.NewNeighborIndex(...).NeighborLists()). It also fixes the
	// deployment: Observe rejects a sensor without a list.
	Neighbors [][]cps.SensorID
	// MaxGap is the largest window gap that still links two records
	// (cluster.MaxWindowGap(δt, width)).
	MaxGap int
	// Emit receives each closed event's micro-cluster. Must be non-nil.
	Emit func(*cluster.Cluster)
}

// Processor ingests a canonical record stream and emits micro-clusters as
// events close. The ingest side (Observe/ObserveAll/Flush) is single-writer:
// only one goroutine may feed the stream. The progress counters (Observed,
// Emitted) are atomic and may be read concurrently from other goroutines —
// e.g. a monitoring loop watching an ObserveAll in flight.
//
// Memory invariant for long-lived streams: every event ref is bounded by the
// records of the last MaxGap+1 windows. In particular no sensor's recent ref
// outlives its latest record by more than MaxGap windows — stale refs can
// never satisfy join and are cleared as the clock advances, so a perpetual
// stream over many sensors pins no dead events between Flushes. The flat
// per-sensor and per-window arrays themselves stay allocated for reuse.
type Processor struct {
	cfg Config
	gen *cluster.IDGen

	// recent holds, per sensor, the event and window of its latest record;
	// a zero ref (nil event) means none within MaxGap windows. Indexed by
	// SensorID and sized to the neighbor lists.
	recent []sensorRef
	// expiry is a ring of MaxGap+1 buckets, bucket w mod (MaxGap+1) listing
	// the sensors that reported in window w, so advance clears stale refs in
	// time amortized by the records that set them. A sensor appears in the
	// bucket of every window it reported in; only the bucket matching its
	// current ref clears it. Empty before the first record and after Flush;
	// the buckets' lists are reused.
	expiry []expiryBucket
	// open lists live events (some entries may be forwarded; compacted on
	// advance).
	open []*event

	window   cps.Window // current stream window
	started  bool
	observed atomic.Int64
	emitted  atomic.Int64

	// obsm holds the metric handles; nil (the default) disables them. Stored
	// atomically so SetObserver may arm a processor another goroutine reads.
	obsm atomic.Pointer[streamObs]
}

// streamObs bundles the processor's pre-resolved metric handles.
type streamObs struct {
	records *obs.Counter
	emitted *obs.Counter
	open    *obs.Gauge
}

// SetObserver registers the stream metric families on r and arms the
// processor; a nil registry disarms it. Safe to call concurrently with reads
// of the progress counters, but like the ingest methods it must not race
// with Observe/Flush.
func (p *Processor) SetObserver(r *obs.Registry) {
	if r == nil {
		p.obsm.Store(nil)
		return
	}
	p.obsm.Store(&streamObs{
		records: r.Counter("atyp_stream_records_total",
			"records consumed from the canonical stream"),
		emitted: r.Counter("atyp_stream_clusters_emitted_total",
			"micro-clusters emitted as events closed"),
		open: r.Gauge("atyp_stream_open_events",
			"events currently under construction"),
	})
}

type sensorRef struct {
	ev     *event
	window cps.Window
}

type expiryBucket struct {
	window  cps.Window
	sensors []cps.SensorID
}

// New returns a processor; gen supplies the emitted clusters' IDs.
func New(cfg Config, gen *cluster.IDGen) (*Processor, error) {
	if cfg.Emit == nil {
		return nil, fmt.Errorf("stream: Config.Emit is required")
	}
	if cfg.MaxGap < 0 {
		return nil, fmt.Errorf("stream: MaxGap must be non-negative, got %d", cfg.MaxGap)
	}
	return &Processor{
		cfg:    cfg,
		gen:    gen,
		recent: make([]sensorRef, len(cfg.Neighbors)),
	}, nil
}

// Observed returns the number of records consumed. Safe to call while
// another goroutine feeds the stream.
func (p *Processor) Observed() int64 { return p.observed.Load() }

// Emitted returns the number of micro-clusters emitted. Safe to call while
// another goroutine feeds the stream.
func (p *Processor) Emitted() int64 { return p.emitted.Load() }

// OpenEvents returns the number of events still under construction.
func (p *Processor) OpenEvents() int {
	n := 0
	for _, e := range p.open {
		if e.forward == nil {
			n++
		}
	}
	return n
}

// Observe consumes one record. Records must arrive in canonical (window,
// sensor) order with a finite, positive severity and a sensor that has a
// neighbor list; other records are rejected and leave the processor
// unchanged. An event the record's window closes whose micro-cluster fails
// cluster.Cluster.Valid (its records sum a feature entry to +Inf) is dropped
// and reported as the error; the record itself is still consumed.
func (p *Processor) Observe(r cps.Record) error {
	if p.started && r.Window < p.window {
		return fmt.Errorf("stream: record window %d before current window %d", r.Window, p.window)
	}
	if !r.Severity.Valid() {
		return fmt.Errorf("stream: record %v: severity must be finite and positive", r)
	}
	if int(r.Sensor) >= len(p.recent) {
		return fmt.Errorf("stream: record %v: sensor outside the %d-sensor deployment", r, len(p.recent))
	}
	var err error
	if !p.started || r.Window > p.window {
		err = p.advance(r.Window)
	}
	p.observed.Add(1)
	if m := p.obsm.Load(); m != nil {
		m.records.Inc()
	}

	// Gather the open events this record is direct atypical related to:
	// same sensor, or a δd-neighbor, with a record within MaxGap windows.
	var home *event
	join := func(s cps.SensorID) {
		ref := p.recent[s]
		if ref.ev == nil || r.Window-ref.window > cps.Window(p.cfg.MaxGap) {
			return
		}
		ev := ref.ev.find()
		switch {
		case home == nil:
			home = ev
		case home != ev:
			// The record bridges two open events: merge the smaller into
			// the larger.
			if len(ev.records) > len(home.records) {
				home, ev = ev, home
			}
			home.records = append(home.records, ev.records...)
			if ev.last > home.last {
				home.last = ev.last
			}
			ev.forward = home
			ev.records = nil
		}
	}
	join(r.Sensor)
	for _, nb := range p.cfg.Neighbors[r.Sensor] {
		join(nb)
	}
	if home == nil {
		home = &event{}
		p.open = append(p.open, home)
	}
	home.records = append(home.records, r)
	if r.Window > home.last {
		home.last = r.Window
	}
	prev := p.recent[r.Sensor]
	p.recent[r.Sensor] = sensorRef{ev: home, window: r.Window}
	if prev.ev == nil || prev.window != r.Window {
		// The bucket is empty or already r.Window's: any other window it
		// could hold is more than MaxGap behind and expired in advance.
		b := &p.expiry[ringSlot(r.Window, len(p.expiry))]
		b.window = r.Window
		b.sensors = append(b.sensors, r.Sensor)
	}
	return err
}

// ObserveAll consumes a batch of canonical records, polling ctx between
// window boundaries: cancellation stops mid-batch with the context error,
// leaving already-consumed records' events open (Flush still closes them).
// An Observe error stops it the same way.
func (p *Processor) ObserveAll(ctx context.Context, recs []cps.Record) error {
	for i, r := range recs {
		if i == 0 || r.Window != recs[i-1].Window {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := p.Observe(r); err != nil {
			return err
		}
	}
	return nil
}

// advance moves the stream clock to w, closing events that can no longer
// gain records (last record more than MaxGap windows in the past) and
// clearing recent refs that can no longer satisfy join. It returns the
// emit errors of the events it closed.
func (p *Processor) advance(w cps.Window) error {
	p.expire(w)
	p.window = w
	p.started = true
	var err error
	live := p.open[:0]
	for _, e := range p.open {
		if e.forward != nil {
			continue // merged away
		}
		if w-e.last > cps.Window(p.cfg.MaxGap) {
			err = errors.Join(err, p.emit(e))
			continue
		}
		live = append(live, e)
	}
	// Nil the compacted tail: the backing array otherwise pins the
	// emitted/merged events — records slices included — until the slice
	// grows back over the slots.
	clear(p.open[len(live):])
	p.open = live

	if m := p.obsm.Load(); m != nil {
		// Compaction dropped every forwarded entry, so len(live) is already
		// the exact open-event count; OpenEvents() stays for external
		// callers, where open may hold forwarded entries between advances.
		m.open.Set(float64(len(live)))
	}
	return err
}

// expire clears the refs of the windows that fall more than MaxGap behind
// the clock when it moves to w. Live buckets hold the windows within MaxGap
// of the old clock, so the stale ones are the oldest min(w-old, MaxGap+1)
// of them: the scan visits one bucket per window the clock passes, plus the
// refs actually cleared.
func (p *Processor) expire(w cps.Window) {
	ring := p.cfg.MaxGap + 1
	if !p.started {
		// Nothing is live: lay out the ring, reusing Flush's buckets.
		p.expiry = slices.Grow(p.expiry, ring)[:ring]
		return
	}
	first := p.window - cps.Window(p.cfg.MaxGap)
	n := min(w-p.window, cps.Window(ring))
	for bw := first; bw < first+n; bw++ {
		b := &p.expiry[ringSlot(bw, ring)]
		if b.window != bw {
			continue
		}
		for _, s := range b.sensors {
			if p.recent[s].window == bw {
				p.recent[s] = sensorRef{}
			}
		}
		b.sensors = b.sensors[:0]
	}
}

// ringSlot returns window w's bucket in a ring of n.
func ringSlot(w cps.Window, n int) int {
	k := w % cps.Window(n)
	if k < 0 {
		k += cps.Window(n)
	}
	return int(k)
}

// Flush closes every open event; call at end of stream. Like Observe, it
// drops each event whose micro-cluster fails cluster.Cluster.Valid and
// returns their errors after closing the rest.
func (p *Processor) Flush() error {
	var err error
	for _, e := range p.open {
		if e.forward == nil {
			err = errors.Join(err, p.emit(e))
		}
	}
	clear(p.open) // drop the event refs the backing array would pin
	p.open = p.open[:0]
	clear(p.recent)
	for i := range p.expiry {
		p.expiry[i].sensors = p.expiry[i].sensors[:0]
	}
	p.expiry = p.expiry[:0]
	p.started = false
	if m := p.obsm.Load(); m != nil {
		m.open.Set(0)
	}
	return err
}

// emit hands the event's micro-cluster to Config.Emit. Every record passed
// Observe's severity check, but their sums can still overflow, so a
// cluster failing Valid is dropped with an error and draws no ID.
func (p *Processor) emit(e *event) error {
	// Records joined out of canonical order during merges; FromRecords
	// canonicalizes features regardless, so no sort is needed here.
	c := cluster.FromRecords(0, e.records)
	if !c.Valid() {
		return fmt.Errorf("stream: event of %d records dropped: a feature severity sums to +Inf", len(e.records))
	}
	c.ID = p.gen.Next()
	p.emitted.Add(1)
	if m := p.obsm.Load(); m != nil {
		m.emitted.Inc()
	}
	p.cfg.Emit(c)
	return nil
}
