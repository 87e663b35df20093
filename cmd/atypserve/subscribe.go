package main

// Standing-query serving: GET /subscribe registers a QueryRequest as a
// standing query (System.Subscribe) and delivers its pushes over the wire.
// Two transports share one parameter surface:
//
//   - mode=sse (default): one long-lived text/event-stream response. Each
//     push is an SSE "push" event; comment lines keep the connection alive
//     through idle stretches. The subscription dies with the connection.
//   - mode=poll: a session store for clients that cannot hold SSE open.
//     The first request (no id) registers and returns a session id; later
//     requests drain buffered pushes, blocking up to ?wait when the buffer
//     is empty. Sessions idle past pollIdleExpiry are lazily swept.
//
// Unlike /query, /subscribe sits outside the shed gate: a subscription is
// expected to live for hours, so admission control is the registry's
// subscriber cap (-maxsubs) and the per-subscriber push buffers
// (-subbuffer), not the in-flight query slots.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cpskit/atypical"
)

const (
	// subHeartbeat paces SSE comment lines so proxies and clients can tell a
	// quiet stream from a dead one.
	subHeartbeat = 15 * time.Second
	// subWriteGrace bounds each SSE write: a client that stops reading for
	// this long is disconnected (the registry would only drop pushes; a dead
	// TCP peer should release its subscriber slot too).
	subWriteGrace = 10 * time.Second
	// subPollWait is the long-poll block when ?wait is absent on an
	// established session; subPollMaxWait caps client-requested waits below
	// common LB idle timeouts.
	subPollWait    = 25 * time.Second
	subPollMaxWait = 55 * time.Second
	// pollIdleExpiry sweeps poll sessions whose client vanished without
	// ?close=1. It must exceed subPollMaxWait so an in-flight wait cannot be
	// swept out from under its own request.
	pollIdleExpiry = 2 * time.Minute
)

// pushJSON is the wire shape of one standing-query push, for both SSE data
// payloads and long-poll batches. Clusters is the component's complete
// current significant set — empty means the component fell back below the
// significance bound (a retraction). ts_unix_ns is stamped at evaluation
// time, so consumer-side push latency is now minus it.
type pushJSON struct {
	Seq       uint64        `json:"seq"`
	Component uint64        `json:"component"`
	Absorbed  []uint64      `json:"absorbed,omitempty"`
	Gap       bool          `json:"gap,omitempty"`
	TsUnixNS  int64         `json:"ts_unix_ns"`
	Clusters  []clusterJSON `json:"clusters"`
}

// wirePush renders a push for the wire. Clusters is always non-nil so a
// retraction serializes as "clusters": [] rather than null.
func wirePush(sys *atypical.System, p atypical.Push) pushJSON {
	out := pushJSON{
		Seq: p.Seq, Component: p.Component, Absorbed: p.Absorbed,
		Gap: p.Gap, TsUnixNS: p.Ts.UnixNano(),
		Clusters: []clusterJSON{},
	}
	for _, c := range p.Clusters {
		out.Clusters = append(out.Clusters, clusterJSON{
			ID:          uint64(c.ID),
			Severity:    float64(c.Severity()),
			Description: sys.Describe(c),
		})
	}
	return out
}

// parseSubscribeRequest builds the standing QueryRequest from the GET
// parameters. The strategy default is "all", not /query's "gui": Guided
// standing queries are rejected by Subscribe (red zones track the mutable
// severity index), so defaulting to it would make the bare
// GET /subscribe an error.
func parseSubscribeRequest(r *http.Request) (atypical.QueryRequest, error) {
	name := r.URL.Query().Get("strategy")
	if name == "" {
		name = "all"
	}
	strat, err := atypical.ParseStrategy(name)
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	from, err := param(r, "from", 0, strconv.Atoi)
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	days, err := param(r, "days", 7, strconv.Atoi)
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	deltaS, err := param(r, "deltas", 0.0, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		return atypical.QueryRequest{}, err
	}
	return atypical.QueryRequest{
		FirstDay: from, Days: days, DeltaS: deltaS, Strategy: strat,
	}, nil
}

// subscribeError maps a Subscribe failure to its HTTP answer: the cap is a
// retryable 503 (slots free on unsubscribe), everything else is the client's
// request.
func subscribeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, atypical.ErrTooManySubscribers):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, atypical.ErrInvalidRequest):
		writeRequestError(w, err)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// serveSubscribe routes GET /subscribe by mode.
func serveSubscribe(ac apiConfig, st *subStore, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "sse":
		req, err := parseSubscribeRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sub, err := ac.sys.Subscribe(req)
		if err != nil {
			subscribeError(w, err)
			return
		}
		serveSSE(ac, w, r, req, sub)
	case "poll":
		servePoll(ac, st, w, r)
	default:
		http.Error(w, fmt.Sprintf("bad mode %q (want sse or poll)", mode), http.StatusBadRequest)
	}
}

// serveSSE streams one subscription until the client disconnects (or stops
// reading past subWriteGrace). The first event announces the subscription id;
// every later "push" event carries one pushJSON. The per-write deadline
// overrides the server's WriteTimeout, which would otherwise kill the stream
// at queryTimeout+5s like any ordinary response.
func serveSSE(ac apiConfig, w http.ResponseWriter, r *http.Request, req atypical.QueryRequest, sub *atypical.Subscription) {
	started := time.Now()
	var pushed uint64
	var maxLatNS int64
	defer func() {
		ac.sys.Unsubscribe(sub.ID())
		ev := &atypical.QueryLogEvent{
			Time:             started,
			Kind:             "subscribe",
			Source:           "/subscribe",
			Strategy:         req.Strategy.String(),
			DurationNS:       time.Since(started).Nanoseconds(),
			Pushes:           pushed,
			Dropped:          sub.Dropped(),
			Gaps:             sub.Gaps(),
			MaxPushLatencyNS: maxLatNS,
		}
		if sp := atypical.SpanFromContext(r.Context()); sp != nil {
			ev.TraceID = sp.TraceHex()
		}
		ac.sys.RecordQueryLog(ev)
	}()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(event string, data []byte) error {
		_ = rc.SetWriteDeadline(time.Now().Add(subWriteGrace))
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}
	hello, _ := json.Marshal(map[string]uint64{"subscription": sub.ID()})
	if err := writeEvent("subscribed", hello); err != nil {
		return
	}

	tick := time.NewTicker(subHeartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.Done():
			return
		case p := <-sub.Pushes():
			data, err := json.Marshal(wirePush(ac.sys, p))
			if err != nil {
				ac.logger.Error("subscribe: encoding push", "err", err)
				return
			}
			if err := writeEvent("push", data); err != nil {
				return
			}
			pushed++
			if lat := time.Since(p.Ts).Nanoseconds(); lat > maxLatNS {
				maxLatNS = lat
			}
		case <-tick.C:
			_ = rc.SetWriteDeadline(time.Now().Add(subWriteGrace))
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// pollSession is one long-poll subscription between requests. The stream
// counters accumulate across requests so the teardown flight event summarizes
// the whole session, not just its final drain; they are atomics because
// nothing stops a client from draining the same id concurrently.
type pollSession struct {
	sub      *atypical.Subscription
	lastSeen time.Time
	started  time.Time
	strategy atypical.Strategy
	traceID  string
	pushed   atomic.Uint64
	maxLatNS atomic.Int64
}

// noteLatency folds one push's evaluation-to-wire latency into the session
// maximum.
func (s *pollSession) noteLatency(ns int64) {
	for {
		cur := s.maxLatNS.Load()
		if ns <= cur || s.maxLatNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// recordPollEvent emits the session's teardown flight event: one "subscribe"
// wide event per poll session, on explicit close, stream teardown, or idle
// sweep.
func recordPollEvent(ac apiConfig, sess *pollSession) {
	ac.sys.RecordQueryLog(&atypical.QueryLogEvent{
		Time:             sess.started,
		Kind:             "subscribe",
		Source:           "/subscribe?mode=poll",
		TraceID:          sess.traceID,
		Strategy:         sess.strategy.String(),
		DurationNS:       time.Since(sess.started).Nanoseconds(),
		Pushes:           sess.pushed.Load(),
		Dropped:          sess.sub.Dropped(),
		Gaps:             sess.sub.Gaps(),
		MaxPushLatencyNS: sess.maxLatNS.Load(),
	})
}

// subStore holds the long-poll sessions. Expiry is lazy: every poll request
// sweeps sessions idle past pollIdleExpiry, so abandoned subscriptions
// release their registry slots without a background goroutine.
type subStore struct {
	mu       sync.Mutex
	sessions map[string]*pollSession
}

func newSubStore() *subStore {
	return &subStore{sessions: make(map[string]*pollSession)}
}

// sweep drops sessions idle past pollIdleExpiry, handing each dead session
// to drop for unregistration and its teardown flight event.
func (st *subStore) sweep(now time.Time, drop func(*pollSession)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, s := range st.sessions {
		if now.Sub(s.lastSeen) > pollIdleExpiry {
			delete(st.sessions, id)
			drop(s)
		}
	}
}

// touch fetches a session and stamps its lastSeen.
func (st *subStore) touch(id string, now time.Time) (*pollSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if ok {
		s.lastSeen = now
	}
	return s, ok
}

// put registers a fresh session under a new random id.
func (st *subStore) put(sess *pollSession, now time.Time) string {
	id := newSessionID()
	sess.lastSeen = now
	st.mu.Lock()
	st.sessions[id] = sess
	st.mu.Unlock()
	return id
}

// remove deletes a session, reporting whether it existed.
func (st *subStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.sessions[id]
	delete(st.sessions, id)
	return ok
}

// newSessionID returns 128 bits of hex: poll session ids authorize draining
// the subscription, so they must be unguessable, not merely unique.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// pollResponse is the JSON answer of one mode=poll request.
type pollResponse struct {
	ID      string     `json:"id"`
	Pushes  []pushJSON `json:"pushes"`
	Dropped uint64     `json:"dropped,omitempty"`
	Closed  bool       `json:"closed,omitempty"`
}

// servePoll answers mode=poll: register (no id), drain (id), or tear down
// (id + close=1). Draining blocks up to ?wait when the buffer is empty, so
// clients get push latency close to SSE without holding a stream open.
func servePoll(ac apiConfig, st *subStore, w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	st.sweep(now, func(sess *pollSession) {
		ac.sys.Unsubscribe(sess.sub.ID())
		recordPollEvent(ac, sess)
	})

	q := r.URL.Query()
	id := q.Get("id")
	wait := time.Duration(0)
	var sess *pollSession
	if id == "" {
		req, err := parseSubscribeRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sub, err := ac.sys.Subscribe(req)
		if err != nil {
			subscribeError(w, err)
			return
		}
		sess = &pollSession{sub: sub, started: now, strategy: req.Strategy}
		if sp := atypical.SpanFromContext(r.Context()); sp != nil {
			sess.traceID = sp.TraceHex()
		}
		id = st.put(sess, now)
	} else {
		var ok bool
		sess, ok = st.touch(id, now)
		if !ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(requestErrorJSON{
				Error: "unknown_subscription", Detail: "no poll session with that id (expired or closed)",
			})
			return
		}
		if q.Get("close") == "1" {
			st.remove(id)
			ac.sys.Unsubscribe(sess.sub.ID())
			recordPollEvent(ac, sess)
			writePollResponse(ac, w, pollResponse{ID: id, Pushes: []pushJSON{}, Closed: true})
			return
		}
		wait = subPollWait
	}
	if s := q.Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			http.Error(w, fmt.Sprintf("bad wait %q (want a non-negative duration)", s), http.StatusBadRequest)
			return
		}
		wait = min(d, subPollMaxWait)
	}

	pushes, closed := drainPushes(ac.sys, sess.sub, r.Context(), wait)
	sess.pushed.Add(uint64(len(pushes)))
	drained := time.Now().UnixNano()
	for i := range pushes {
		sess.noteLatency(drained - pushes[i].TsUnixNS)
	}
	if closed {
		st.remove(id)
		recordPollEvent(ac, sess)
	}
	writePollResponse(ac, w, pollResponse{
		ID: id, Pushes: pushes, Dropped: sess.sub.Dropped(), Closed: closed,
	})
}

func writePollResponse(ac apiConfig, w http.ResponseWriter, resp pollResponse) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		ac.logger.Error("subscribe: encoding poll response", "err", err)
	}
}

// drainPushes collects everything buffered; if that is nothing and wait is
// positive, it blocks for the first push (or teardown) and then drains the
// rest of the burst. closed reports the subscription was unregistered
// underneath the session (Done fired).
func drainPushes(sys *atypical.System, sub *atypical.Subscription, ctx context.Context, wait time.Duration) (pushes []pushJSON, closed bool) {
	pushes = drainBuffered(sys, sub, []pushJSON{})
	if len(pushes) > 0 || wait <= 0 {
		return pushes, false
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	case <-sub.Done():
		closed = true
	case p := <-sub.Pushes():
		pushes = drainBuffered(sys, sub, append(pushes, wirePush(sys, p)))
	}
	return pushes, closed
}

// drainBuffered appends every already-buffered push without blocking.
func drainBuffered(sys *atypical.System, sub *atypical.Subscription, pushes []pushJSON) []pushJSON {
	for {
		select {
		case p := <-sub.Pushes():
			pushes = append(pushes, wirePush(sys, p))
		default:
			return pushes
		}
	}
}

// replayStream drives the -stream demo feed: after ingest it replays the
// generated months through a stream processor at rate records/sec, cycling
// forever. Emitted micro-clusters are discarded rather than ingested — the
// batch forest already holds these months; the point is feeding /subscribe
// a live stream whose day windows match the subscribed ranges. Flush between
// months resets the stream clock so each pass re-covers those windows.
// Subscription evaluators keep accumulating across passes (to them it is one
// endless stream), so long-lived demo subscriptions grow state without
// bound; real deployments feed real streams instead.
func replayStream(ctx context.Context, logger *slog.Logger, sys *atypical.System, months, rate int) {
	p, err := sys.NewStreamProcessor(func(*atypical.Cluster) {})
	if err != nil {
		logger.Error("stream replay: building processor", "err", err)
		return
	}
	if months < 1 {
		months = 1
	}
	for m := 0; ctx.Err() == nil; m = (m + 1) % months {
		recs := sys.GenerateMonth(m).Atypical.Records()
		logger.Info("stream replay: month start", "month", m, "records", len(recs), "rate", rate)
		if err := observePaced(ctx, p, recs, rate); err != nil {
			if !errors.Is(err, context.Canceled) {
				logger.Error("stream replay: observing", "err", err)
			}
			return
		}
		if err := p.Flush(); err != nil {
			logger.Error("stream replay: flushing", "err", err)
		}
	}
}

// observePaced feeds recs to p in one-second slices of rate records;
// rate <= 0 feeds them flat out.
func observePaced(ctx context.Context, p *atypical.StreamProcessor, recs []atypical.Record, rate int) error {
	if rate <= 0 {
		return p.ObserveAll(ctx, recs)
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for start := 0; start < len(recs); start += rate {
		end := min(start+rate, len(recs))
		if err := p.ObserveAll(ctx, recs[start:end]); err != nil {
			return err
		}
		if end < len(recs) {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-tick.C:
			}
		}
	}
	return nil
}
