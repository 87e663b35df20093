package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
	"github.com/cpskit/atypical/internal/gen"
	"github.com/cpskit/atypical/internal/geo"
	"github.com/cpskit/atypical/internal/index"
	"github.com/cpskit/atypical/internal/traffic"
)

func lineLocs(n int, spacingMiles float64) []geo.Point {
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Point{Lat: 34, Lon: -118 + float64(i)*spacingMiles/geo.MilesPerDegreeLon(34)}
	}
	return locs
}

func newProc(t testing.TB, locs []geo.Point, deltaD float64, maxGap int) (*Processor, *[]*cluster.Cluster) {
	t.Helper()
	var out []*cluster.Cluster
	var g cluster.IDGen
	p, err := New(Config{
		Neighbors: index.NewNeighborIndex(locs, deltaD).NeighborLists(),
		MaxGap:    maxGap,
		Emit:      func(c *cluster.Cluster) { out = append(out, c) },
	}, &g)
	if err != nil {
		t.Fatal(err)
	}
	return p, &out
}

func feed(t testing.TB, p *Processor, recs []cps.Record) {
	t.Helper()
	for _, r := range recs {
		if err := p.Observe(r); err != nil {
			t.Fatalf("Observe(%v): %v", r, err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	var g cluster.IDGen
	if _, err := New(Config{MaxGap: 1}, &g); err == nil {
		t.Error("nil Emit accepted")
	}
	if _, err := New(Config{MaxGap: -1, Emit: func(*cluster.Cluster) {}}, &g); err == nil {
		t.Error("negative MaxGap accepted")
	}
}

func TestRejectsOutOfOrder(t *testing.T) {
	p, _ := newProc(t, lineLocs(3, 1), 1.5, 2)
	if err := p.Observe(cps.Record{Sensor: 0, Window: 5, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(cps.Record{Sensor: 0, Window: 4, Severity: 1}); err == nil {
		t.Error("out-of-order record accepted")
	}
}

// A record whose severity is not finite and positive is rejected like an
// out-of-order one: it opens no event and moves no clock.
func TestRejectsInvalidSeverity(t *testing.T) {
	p, out := newProc(t, lineLocs(3, 1), 1.5, 2)
	for _, sev := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := p.Observe(cps.Record{Sensor: 1, Window: 9, Severity: cps.Severity(sev)}); err == nil {
			t.Errorf("severity %v accepted", sev)
		}
	}
	if p.Observed() != 0 || p.OpenEvents() != 0 {
		t.Fatalf("rejected records changed the processor: observed %d, open %d", p.Observed(), p.OpenEvents())
	}
	feed(t, p, []cps.Record{{Sensor: 0, Window: 5, Severity: 1}})
	if len(*out) != 1 {
		t.Fatalf("emitted %d clusters after the rejections, want 1", len(*out))
	}
}

// Records that are each finite can sum to +Inf in one feature entry. Such
// an event is dropped and reported — by the Observe whose window closes it,
// or by Flush — and the events around it still emit.
func TestOverflowingEventDropped(t *testing.T) {
	huge := cps.Severity(math.MaxFloat64)
	for _, tc := range []struct {
		viaFlush bool
		want     int // the event before, and with Observe the one after
	}{{false, 2}, {true, 1}} {
		viaFlush := tc.viaFlush
		p, out := newProc(t, lineLocs(3, 1), 1.5, 2)
		for _, r := range []cps.Record{
			{Sensor: 2, Window: 0, Severity: 1},
			{Sensor: 0, Window: 10, Severity: huge},
			{Sensor: 0, Window: 11, Severity: huge},
		} {
			if err := p.Observe(r); err != nil {
				t.Fatalf("Observe(%v): %v", r, err)
			}
		}
		var err error
		if viaFlush {
			err = p.Flush()
		} else {
			err = p.Observe(cps.Record{Sensor: 2, Window: 20, Severity: 1})
			if ferr := p.Flush(); ferr != nil {
				t.Fatalf("Flush after the drop: %v", ferr)
			}
		}
		if err == nil {
			t.Errorf("viaFlush=%v: overflowing event not reported", viaFlush)
		}
		for _, c := range *out {
			if !c.Valid() {
				t.Fatalf("viaFlush=%v: emitted invalid cluster %v", viaFlush, c)
			}
		}
		if len(*out) != tc.want || p.Emitted() != int64(tc.want) {
			t.Errorf("viaFlush=%v: emitted %d clusters (counter %d), want %d", viaFlush, len(*out), p.Emitted(), tc.want)
		}
	}
}

func TestSingleEvent(t *testing.T) {
	p, out := newProc(t, lineLocs(4, 1), 1.5, 2)
	feed(t, p, []cps.Record{
		{Sensor: 0, Window: 0, Severity: 2},
		{Sensor: 1, Window: 0, Severity: 3},
		{Sensor: 1, Window: 1, Severity: 4},
	})
	if len(*out) != 1 {
		t.Fatalf("clusters = %d, want 1", len(*out))
	}
	c := (*out)[0]
	if c.Severity() != 9 {
		t.Errorf("severity = %v", c.Severity())
	}
	if p.Observed() != 3 || p.Emitted() != 1 {
		t.Errorf("counters = %d, %d", p.Observed(), p.Emitted())
	}
}

func TestEventClosesAfterGap(t *testing.T) {
	p, out := newProc(t, lineLocs(2, 1), 1.5, 2)
	if err := p.Observe(cps.Record{Sensor: 0, Window: 0, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	// Advancing the stream by more than MaxGap closes the first event
	// before Flush.
	if err := p.Observe(cps.Record{Sensor: 0, Window: 10, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 1 {
		t.Fatalf("event should have closed on advance, emitted %d", len(*out))
	}
	if p.OpenEvents() != 1 {
		t.Errorf("open events = %d, want 1", p.OpenEvents())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(*out) != 2 {
		t.Errorf("after flush emitted = %d", len(*out))
	}
}

func TestBridgeMergesEvents(t *testing.T) {
	// Sensors 0 and 2 are 2 miles apart (unrelated at δd=1.5); sensor 1
	// sits between them and bridges.
	p, out := newProc(t, lineLocs(3, 1), 1.5, 2)
	feed(t, p, []cps.Record{
		{Sensor: 0, Window: 0, Severity: 1},
		{Sensor: 2, Window: 0, Severity: 1},
		{Sensor: 1, Window: 1, Severity: 1}, // bridges both open events
	})
	if len(*out) != 1 {
		t.Fatalf("clusters = %d, want 1 (bridged)", len(*out))
	}
	if (*out)[0].Severity() != 3 {
		t.Errorf("severity = %v", (*out)[0].Severity())
	}
}

// The central property: streaming emission partitions records exactly like
// batch extraction (Algorithm 1).
func TestMatchesBatchExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	locs := lineLocs(25, 0.8)
	neighbors := index.NewNeighborIndex(locs, 1.5).NeighborLists()
	for trial := 0; trial < 15; trial++ {
		maxGap := trial % 4
		var recs []cps.Record
		n := 100 + rng.Intn(300)
		for i := 0; i < n; i++ {
			recs = append(recs, cps.Record{
				Sensor:   cps.SensorID(rng.Intn(25)),
				Window:   cps.Window(rng.Intn(80)),
				Severity: cps.Severity(rng.Intn(5)) + 1,
			})
		}
		canonical := cps.NewRecordSet(recs).Records()

		var got []*cluster.Cluster
		var g cluster.IDGen
		p, err := New(Config{
			Neighbors: neighbors,
			MaxGap:    maxGap,
			Emit:      func(c *cluster.Cluster) { got = append(got, c) },
		}, &g)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, p, canonical)

		var g2 cluster.IDGen
		want := cluster.ExtractMicroClusters(&g2, canonical, neighbors, maxGap)
		if !sameClusterSet(got, want) {
			t.Fatalf("trial %d (maxGap %d): stream %d clusters != batch %d clusters",
				trial, maxGap, len(got), len(want))
		}
	}
}

// sameClusterSet compares cluster sets by canonical feature fingerprints.
func sameClusterSet(a, b []*cluster.Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	fa, fb := fingerprints(a), fingerprints(b)
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

func fingerprints(cs []*cluster.Cluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		s := ""
		for _, e := range c.SF {
			s += string(rune(e.Key)) + ":" + string(rune(int(e.Sev*8))) + ";"
		}
		s += "|"
		for _, e := range c.TF {
			s += string(rune(e.Key)) + ":" + string(rune(int(e.Sev*8))) + ";"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// Property: total severity and record counts are conserved through the
// processor regardless of input shape.
func TestConservationProperty(t *testing.T) {
	locs := lineLocs(10, 1)
	neighbors := index.NewNeighborIndex(locs, 1.5).NeighborLists()
	f := func(seeds []uint16, gapRaw uint8) bool {
		recs := make([]cps.Record, 0, len(seeds))
		for _, x := range seeds {
			recs = append(recs, cps.Record{
				Sensor:   cps.SensorID(x % 10),
				Window:   cps.Window(x / 10 % 50),
				Severity: cps.Severity(x%4) + 1,
			})
		}
		canonical := cps.NewRecordSet(recs).Records()
		var total cps.Severity
		for _, r := range canonical {
			total += r.Severity
		}
		var got cps.Severity
		var g cluster.IDGen
		p, err := New(Config{
			Neighbors: neighbors,
			MaxGap:    int(gapRaw % 4),
			Emit:      func(c *cluster.Cluster) { got += c.Severity() },
		}, &g)
		if err != nil {
			return false
		}
		for _, r := range canonical {
			if p.Observe(r) != nil {
				return false
			}
		}
		if p.Flush() != nil {
			return false
		}
		d := float64(total - got)
		return d < 1e-6 && d > -1e-6 && p.Observed() == int64(len(canonical))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// End to end on the synthetic workload: streaming a full day of traffic
// produces the batch micro-clusters.
func TestStreamsSyntheticDay(t *testing.T) {
	net := traffic.GenerateNetwork(traffic.ScaledConfig(200))
	cfg := gen.DefaultConfig(net)
	cfg.DaysPerMonth = 1
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
	maxGap := cluster.MaxWindowGap(15*time.Minute, cps.DefaultSpec().Width)

	var got []*cluster.Cluster
	var idgen cluster.IDGen
	p, err := New(Config{
		Neighbors: neighbors,
		MaxGap:    maxGap,
		Emit:      func(c *cluster.Cluster) { got = append(got, c) },
	}, &idgen)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, p, ds.Atypical.Records())

	var idgen2 cluster.IDGen
	want := cluster.ExtractMicroClusters(&idgen2, ds.Atypical.Records(), neighbors, maxGap)
	if len(got) != len(want) {
		t.Fatalf("stream %d clusters, batch %d", len(got), len(want))
	}
	var gotSev, wantSev cps.Severity
	for i := range got {
		gotSev += got[i].Severity()
		wantSev += want[i].Severity()
	}
	if d := float64(gotSev - wantSev); d > 1e-6 || d < -1e-6 {
		t.Errorf("severity: stream %v, batch %v", gotSev, wantSev)
	}
}

// ObserveAll matches a manual Observe loop, and its counters may be read
// concurrently while the batch drains (the race detector is the oracle).
func TestObserveAllMatchesObserveLoop(t *testing.T) {
	recs := []cps.Record{
		{Sensor: 0, Window: 0, Severity: 2},
		{Sensor: 1, Window: 0, Severity: 3},
		{Sensor: 1, Window: 1, Severity: 4},
		{Sensor: 3, Window: 9, Severity: 1},
	}
	loop, loopOut := newProc(t, lineLocs(4, 1), 1.5, 2)
	feed(t, loop, recs)

	batch, batchOut := newProc(t, lineLocs(4, 1), 1.5, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch.Observed() < int64(len(recs)) {
			_ = batch.Emitted()
		}
	}()
	if err := batch.ObserveAll(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := batch.Flush(); err != nil {
		t.Fatal(err)
	}

	if len(*batchOut) != len(*loopOut) {
		t.Fatalf("ObserveAll emitted %d clusters, loop %d", len(*batchOut), len(*loopOut))
	}
	for i := range *batchOut {
		if (*batchOut)[i].Severity() != (*loopOut)[i].Severity() {
			t.Errorf("cluster %d severity %v, loop %v", i, (*batchOut)[i].Severity(), (*loopOut)[i].Severity())
		}
	}
	if batch.Observed() != loop.Observed() || batch.Emitted() != loop.Emitted() {
		t.Errorf("counters = %d/%d, loop %d/%d",
			batch.Observed(), batch.Emitted(), loop.Observed(), loop.Emitted())
	}
}

// liveRefs counts the sensors holding a recent ref.
func liveRefs(p *Processor) int {
	n := 0
	for _, ref := range p.recent {
		if ref.ev != nil {
			n++
		}
	}
	return n
}

// hasRef reports whether sensor s holds a recent ref.
func hasRef(p *Processor, s cps.SensorID) bool {
	return int(s) < len(p.recent) && p.recent[s].ev != nil
}

// liveBuckets counts the expiry buckets listing any sensor.
func liveBuckets(p *Processor) int {
	n := 0
	for _, b := range p.expiry {
		if len(b.sensors) > 0 {
			n++
		}
	}
	return n
}

// The recent refs must not leak: once a sensor's latest record is more than
// MaxGap windows behind the stream clock it can never satisfy join, so
// advance clears it without waiting for Flush.
func TestRecentMapPrunedAfterGap(t *testing.T) {
	const n = 40
	p, _ := newProc(t, lineLocs(n, 10), 1.5, 2)
	for i := 0; i < n; i++ {
		if err := p.Observe(cps.Record{Sensor: cps.SensorID(i), Window: 0, Severity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := liveRefs(p); got != n {
		t.Fatalf("recent = %d sensors, want %d", got, n)
	}
	// Advance past the gap: every window-0 ref is stale now.
	if err := p.Observe(cps.Record{Sensor: 0, Window: 10, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	if got := liveRefs(p); got != 1 {
		t.Errorf("recent = %d sensors after gap, want 1 (the live one)", got)
	}
	if got := liveBuckets(p); got != 1 {
		t.Errorf("expiry = %d buckets after gap, want 1", got)
	}
}

// A re-reporting sensor must survive the prune of its older bucket: only the
// bucket matching the sensor's current ref may delete it.
func TestRecentPruneKeepsRefreshedSensor(t *testing.T) {
	p, _ := newProc(t, lineLocs(4, 10), 1.5, 2)
	feedNoFlush := []cps.Record{
		{Sensor: 0, Window: 0, Severity: 1},
		{Sensor: 1, Window: 0, Severity: 1},
		{Sensor: 0, Window: 2, Severity: 1}, // sensor 0 refreshes
		{Sensor: 2, Window: 4, Severity: 1}, // window 0 expires, window 2 lives
	}
	for _, r := range feedNoFlush {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if !hasRef(p, 0) {
		t.Error("refreshed sensor 0 pruned by its stale bucket")
	}
	if hasRef(p, 1) {
		t.Error("stale sensor 1 survived the prune")
	}
	if !hasRef(p, 2) {
		t.Error("live sensor 2 missing from recent")
	}
}

// Compaction must nil the tail slots it vacates: the backing array otherwise
// pins emitted events and their records until the slice grows back.
func TestCompactionClearsTailSlots(t *testing.T) {
	p, _ := newProc(t, lineLocs(8, 10), 1.5, 1)
	for i := 0; i < 8; i++ {
		if err := p.Observe(cps.Record{Sensor: cps.SensorID(i), Window: 0, Severity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Close all 8 far-apart events, then open one new event: the compacted
	// tail of the shared backing array must hold no stale *event refs.
	if err := p.Observe(cps.Record{Sensor: 0, Window: 5, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	tail := p.open[len(p.open):cap(p.open)]
	for i, e := range tail {
		if e != nil {
			t.Fatalf("backing-array slot %d still pins an emitted event", i)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	tail = p.open[:cap(p.open)]
	for i, e := range tail {
		if e != nil {
			t.Fatalf("slot %d still pins an event after Flush", i)
		}
	}
	if len(p.expiry) != 0 {
		t.Errorf("expiry = %d buckets after Flush, want 0", len(p.expiry))
	}
}

func TestObserveAllCancelled(t *testing.T) {
	p, _ := newProc(t, lineLocs(3, 1), 1.5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.ObserveAll(ctx, []cps.Record{{Sensor: 0, Window: 0, Severity: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ObserveAll error = %v, want context.Canceled", err)
	}
	if p.Observed() != 0 {
		t.Fatalf("cancelled ObserveAll consumed %d records", p.Observed())
	}
}

// A sensor past the neighbor lists lies outside the deployment: Observe
// rejects it and leaves the processor unchanged. A sensor with no neighbors
// inside it still chains its own records, across a negative window and a
// ring wrap, and Flush clears its ref with the rest.
func TestSensorPastNeighborLists(t *testing.T) {
	p, out := newProc(t, lineLocs(10, 10), 1.5, 2)
	if err := p.Observe(cps.Record{Sensor: 10, Window: -1, Severity: 1}); err == nil {
		t.Fatal("Observe accepted a sensor past the neighbor lists")
	}
	if p.Observed() != 0 || liveRefs(p) != 0 || p.started {
		t.Fatalf("rejected record changed the processor: observed %d, %d refs", p.Observed(), liveRefs(p))
	}
	for _, r := range []cps.Record{
		{Sensor: 0, Window: -1, Severity: 1},
		{Sensor: 9, Window: -1, Severity: 1},
		{Sensor: 9, Window: 1, Severity: 1},
		{Sensor: 9, Window: 3, Severity: 1},
		{Sensor: 0, Window: 4, Severity: 1}, // window -1 expired: sensor 0 starts anew
	} {
		if err := p.Observe(r); err != nil {
			t.Fatal(err)
		}
	}
	if !hasRef(p, 9) || liveRefs(p) != 2 {
		t.Fatalf("refs = %d (sensor 9 held: %v), want sensors 0 and 9", liveRefs(p), hasRef(p, 9))
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if liveRefs(p) != 0 || len(p.expiry) != 0 {
		t.Errorf("after Flush: %d refs, %d buckets; want none", liveRefs(p), len(p.expiry))
	}
	sizes := make([]int, len(*out))
	for i, c := range *out {
		sizes[i] = int(c.Severity())
	}
	sort.Ints(sizes)
	if len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 1 || sizes[2] != 3 {
		t.Errorf("event sizes = %v, want [1 1 3]", sizes)
	}
}
