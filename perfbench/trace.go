package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call recorded by this package: name, start, end,
// the span that caused it, and the request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code paths serve traced and untraced runs. It is
// safe for concurrent use (shard calls of one scatter run in parallel).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root starts a top-level span for request req (-1 for none).
func (t *tracer) root(name string, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// start opens a child of parent (0 for a root without request) and returns
// its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	req := -1
	if parent > 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations of every span called name, in start order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// perRequest sums the durations of the spans called name per request ID.
func (t *tracer) perRequest(name string) map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// selfTimes returns each span name's total self time: its spans' durations
// minus the part of each interval that child spans cover (overlapping
// children, such as parallel shard calls, count once).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur := s.Start
		for _, c := range cs {
			from, to := max(c.Start, cur), min(c.End, s.End)
			if to > from {
				covered += to - from
				cur = to
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfTable renders the self-time table, largest first.
func (t *tracer) selfTable() []string {
	self := t.selfTimes()
	counts := make(map[string]int)
	for _, s := range t.spans {
		counts[s.Name]++
	}
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{fmt.Sprintf("# %-22s %8s %12s %7s", "span", "calls", "self_ms", "share")}
	for _, n := range names {
		share := 0.0
		if total > 0 {
			share = float64(self[n]) / float64(total)
		}
		out = append(out, fmt.Sprintf("# %-22s %8d %12.3f %6.1f%%", n, counts[n], ms(self[n]), 100*share))
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanDir is where traced runs leave their span files, inside the checkout.
const spanDir = ".bench_build/spans"

// finishTrace writes the spans and returns the notes describing them.
func finishTrace(t *tracer, r run) ([]string, error) {
	path, err := t.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err != nil {
		return nil, err
	}
	notes := []string{fmt.Sprintf("# %d spans written to %s; self time per span name:", len(t.spans), path)}
	return append(notes, t.selfTable()...), nil
}

// parentKey carries a span ID through a context into code this package
// wraps (the shard backends called by the coordinator).
type parentKey struct{}

func withParent(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int {
	id, _ := ctx.Value(parentKey{}).(int)
	return id
}
