package atypical

import (
	"context"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// subFP fingerprints a cluster's features exactly (float bits), mirroring
// the internal evaluator's change detection: equality means bit-identical
// SF and TF.
func subFP(c *Cluster) string {
	var b strings.Builder
	for _, e := range c.SF {
		b.WriteString(strconv.FormatUint(uint64(e.Key), 16))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(math.Float64bits(float64(e.Sev)), 16))
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, e := range c.TF {
		b.WriteString(strconv.FormatUint(uint64(e.Key), 16))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(math.Float64bits(float64(e.Sev)), 16))
		b.WriteByte(';')
	}
	return b.String()
}

func subFPs(cs []*Cluster) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = subFP(c)
	}
	sort.Strings(out)
	return out
}

// The facade-level equivalence anchor: events pushed to a standing query
// over a finite canonical stream equal the batch Run answer after Flush +
// IngestClusters, for both supported strategies.
func TestSubscribeMatchesRunAfterFlush(t *testing.T) {
	for _, strat := range []Strategy{IntegrateAll, Pruned} {
		cfg := testConfig()
		cfg.Sensors = 120
		sys, err := NewSystem(cfg, WithSubscriptionBuffer(1<<14))
		if err != nil {
			t.Fatal(err)
		}
		req := QueryRequest{Days: 2, DeltaS: 0.001, Strategy: strat}
		sub, err := sys.Subscribe(req)
		if err != nil {
			t.Fatal(err)
		}

		var emitted []*Cluster
		p, err := sys.NewStreamProcessor(func(c *Cluster) { emitted = append(emitted, c) })
		if err != nil {
			t.Fatal(err)
		}
		perDay := Window(sys.Spec().PerDay())
		var recs []Record
		for _, r := range sys.GenerateMonth(0).Atypical.Records() {
			if r.Window < 2*perDay {
				recs = append(recs, r)
			}
		}
		if err := p.ObserveAll(context.Background(), recs); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if sub.Dropped() != 0 {
			t.Fatalf("equivalence harness dropped %d pushes; grow the buffer", sub.Dropped())
		}

		if err := sys.IngestClusters(emitted); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}

		rep := NewPushReplay()
	drainLoop:
		for {
			select {
			case push := <-sub.Pushes():
				rep.Apply(push)
			default:
				break drainLoop
			}
		}
		if rep.Gaps != 0 {
			t.Fatalf("gap marker on a drop-free subscription (strat %v)", strat)
		}
		got, want := subFPs(rep.Significant()), subFPs(res.Significant)
		if len(got) == 0 {
			t.Fatalf("strat %v: standing query pushed no significant clusters; workload too quiet for the test to mean anything", strat)
		}
		if len(got) != len(want) {
			t.Fatalf("strat %v: standing query replayed %d significant clusters, batch Run %d", strat, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("strat %v: significant cluster %d differs from batch Run", strat, i)
			}
		}
	}
}

// Concurrent Subscribe/Unsubscribe while a stream drains: the race detector
// is the oracle (go test -race, the standing merge gate).
func TestSubscribeUnsubscribeRaceDuringStream(t *testing.T) {
	cfg := testConfig()
	cfg.Sensors = 100
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewStreamProcessor(func(*Cluster) {})
	if err != nil {
		t.Fatal(err)
	}
	perDay := Window(sys.Spec().PerDay())
	var recs []Record
	for _, r := range sys.GenerateMonth(0).Atypical.Records() {
		if r.Window < 2*perDay {
			recs = append(recs, r)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sub, err := sys.Subscribe(QueryRequest{Days: 1 + g%2, DeltaS: 0.0005})
				if err != nil {
					t.Error(err)
					return
				}
				// Read whatever is buffered, then tear down mid-stream.
				select {
				case <-sub.Pushes():
				default:
				}
				if !sys.Unsubscribe(sub.ID()) {
					t.Error("Unsubscribe reported unknown id")
					return
				}
			}
		}(g)
	}
	if err := p.ObserveAll(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if n := sys.ActiveSubscriptions(); n != 0 {
		t.Errorf("ActiveSubscriptions = %d after hammer, want 0", n)
	}
}

func TestSubscribeValidationAndCap(t *testing.T) {
	cfg := testConfig()
	cfg.Sensors = 60
	sys, err := NewSystem(cfg, WithSubscriptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe(QueryRequest{Days: 0}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("zero-day Subscribe error = %v, want ErrInvalidRequest", err)
	}
	if _, err := sys.Subscribe(QueryRequest{Days: 1, Strategy: Guided}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("Guided Subscribe error = %v, want ErrInvalidRequest", err)
	}
	first, err := sys.Subscribe(QueryRequest{Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Subscribe(QueryRequest{Days: 1}); !errors.Is(err, ErrTooManySubscribers) {
		t.Errorf("over-cap Subscribe error = %v, want ErrTooManySubscribers", err)
	}
	if !sys.Unsubscribe(first.ID()) {
		t.Fatal("Unsubscribe reported unknown id")
	}
	if _, err := sys.Subscribe(QueryRequest{Days: 1}); err != nil {
		t.Errorf("Subscribe after Unsubscribe freed the slot: %v", err)
	}
}
