package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cpskit/atypical"
)

// newSubTestServer builds a ready API handler over a real system, so the
// subscribe surface is exercised against genuine subscriptions and pushes.
func newSubTestServer(t *testing.T, opts ...atypical.Option) (*atypical.System, *httptest.Server) {
	t.Helper()
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 40
	cfg.Seed = 11
	cfg.DaysPerMonth = 7
	sys, err := atypical.NewSystem(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var ready atomic.Bool
	ready.Store(true)
	var logs lockedBuffer
	ts := httptest.NewServer(newAPIHandler(apiConfig{
		sys: sys, obs: atypical.NewObserver(), ready: &ready,
		logger: newLogger(serveConfig{logTo: &logs}),
	}))
	t.Cleanup(ts.Close)
	return sys, ts
}

// driveStream replays the first days of month 0 through a stream processor,
// which feeds every registered subscription.
func driveStream(t *testing.T, sys *atypical.System, days int) {
	t.Helper()
	p, err := sys.NewStreamProcessor(func(*atypical.Cluster) {})
	if err != nil {
		t.Fatal(err)
	}
	limit := atypical.Window(days) * atypical.Window(sys.Spec().PerDay())
	var recs []atypical.Record
	for _, r := range sys.GenerateMonth(0).Atypical.Records() {
		if r.Window < limit {
			recs = append(recs, r)
		}
	}
	if err := p.ObserveAll(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readSSEEvent reads one complete SSE event (heartbeat comments skipped).
func readSSEEvent(t *testing.T, br *bufio.Reader) (event, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event != "" || data != "" {
				return event, data
			}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// waitActiveSubs polls until the system reports n active subscriptions.
func waitActiveSubs(t *testing.T, sys *atypical.System, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sys.ActiveSubscriptions() == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ActiveSubscriptions = %d, want %d", sys.ActiveSubscriptions(), n)
}

// TestSubscribeSSE opens a standing query over SSE, drives a stream behind
// it, and checks a well-formed push event arrives; closing the connection
// must release the subscriber slot.
func TestSubscribeSSE(t *testing.T) {
	sys, ts := newSubTestServer(t, atypical.WithSubscriptionBuffer(1<<12))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/subscribe?strategy=all&days=7&deltas=0.0005", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	br := bufio.NewReader(resp.Body)
	event, data := readSSEEvent(t, br)
	if event != "subscribed" {
		t.Fatalf("first event = %q, want subscribed", event)
	}
	var hello struct {
		Subscription uint64 `json:"subscription"`
	}
	if err := json.Unmarshal([]byte(data), &hello); err != nil || hello.Subscription == 0 {
		t.Fatalf("subscribed event data %q: err=%v", data, err)
	}

	driveStream(t, sys, 7)

	event, data = readSSEEvent(t, br)
	if event != "push" {
		t.Fatalf("second event = %q, want push", event)
	}
	var p pushJSON
	if err := json.Unmarshal([]byte(data), &p); err != nil {
		t.Fatalf("push event not JSON: %v\n%s", err, data)
	}
	if p.Seq == 0 || p.Component == 0 || p.TsUnixNS <= 0 {
		t.Errorf("push missing bookkeeping: %+v", p)
	}
	if p.Gap {
		t.Error("gap marker on a drop-free stream")
	}
	if p.Clusters == nil {
		t.Error("push clusters serialized as null, want []")
	}

	resp.Body.Close()
	waitActiveSubs(t, sys, 0)
}

// TestSubscribeLongPoll exercises the mode=poll session lifecycle: register,
// drain after a stream, explicit close, and the 404 on a dead id.
func TestSubscribeLongPoll(t *testing.T) {
	sys, ts := newSubTestServer(t, atypical.WithSubscriptionBuffer(1<<12))

	getPoll := func(params string) (int, pollResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/subscribe?mode=poll" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr pollResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatalf("poll response not JSON: %v", err)
			}
		}
		return resp.StatusCode, pr
	}

	code, pr := getPoll("&strategy=pru&days=7&deltas=0.0005")
	if code != http.StatusOK || pr.ID == "" {
		t.Fatalf("poll register: status %d, id %q", code, pr.ID)
	}
	if len(pr.Pushes) != 0 || pr.Pushes == nil {
		t.Fatalf("fresh session pushes = %v, want empty non-nil", pr.Pushes)
	}
	waitActiveSubs(t, sys, 1)

	driveStream(t, sys, 7)

	code, drained := getPoll("&id=" + pr.ID + "&wait=10s")
	if code != http.StatusOK {
		t.Fatalf("poll drain status = %d", code)
	}
	if len(drained.Pushes) == 0 {
		t.Fatal("poll after stream returned no pushes")
	}
	for i := 1; i < len(drained.Pushes); i++ {
		if drained.Pushes[i].Seq <= drained.Pushes[i-1].Seq {
			t.Fatalf("push seqs not increasing: %d then %d",
				drained.Pushes[i-1].Seq, drained.Pushes[i].Seq)
		}
	}
	if drained.Dropped != 0 {
		t.Errorf("drops on an oversized buffer: %d", drained.Dropped)
	}

	code, closed := getPoll("&id=" + pr.ID + "&close=1")
	if code != http.StatusOK || !closed.Closed {
		t.Fatalf("poll close: status %d, closed %v", code, closed.Closed)
	}
	waitActiveSubs(t, sys, 0)

	if code, _ := getPoll("&id=" + pr.ID); code != http.StatusNotFound {
		t.Fatalf("poll on closed id: status %d, want 404", code)
	}
}

// TestSubscribeValidation covers the request-side failure modes of the
// /subscribe surface.
func TestSubscribeValidation(t *testing.T) {
	_, ts := newSubTestServer(t)
	status := func(params string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/subscribe" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := bufio.NewReader(resp.Body)
		for {
			line, err := buf.ReadString('\n')
			b.WriteString(line)
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, _ := status("?strategy=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus strategy: %d, want 400", code)
	}
	if code, body := status("?strategy=gui"); code != http.StatusBadRequest ||
		!strings.Contains(body, "invalid_request") {
		t.Errorf("gui strategy: %d %q, want 400 invalid_request", code, body)
	}
	if code, body := status("?days=0"); code != http.StatusBadRequest ||
		!strings.Contains(body, "invalid_request") {
		t.Errorf("zero days: %d %q, want 400 invalid_request", code, body)
	}
	if code, _ := status("?deltas=abc"); code != http.StatusBadRequest {
		t.Errorf("bad deltas: %d, want 400", code)
	}
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		if code, body := status("?deltas=" + v); code != http.StatusBadRequest ||
			!strings.Contains(body, "invalid_request") {
			t.Errorf("deltas=%s: %d %q, want 400 invalid_request", v, code, body)
		}
	}
	if code, _ := status("?mode=carrier-pigeon"); code != http.StatusBadRequest {
		t.Errorf("bad mode: %d, want 400", code)
	}
	if code, _ := status("?mode=poll&strategy=all&wait=fast"); code != http.StatusBadRequest {
		t.Errorf("bad wait: %d, want 400", code)
	}

	resp, err := http.Post(ts.URL+"/subscribe", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /subscribe: %d, want 405", resp.StatusCode)
	}
}

// TestSubscribeNotReady checks /subscribe gates on readiness like /query.
func TestSubscribeNotReady(t *testing.T) {
	var ready atomic.Bool // stays false
	var logs lockedBuffer
	h := newAPIHandler(apiConfig{
		ready: &ready, logger: newLogger(serveConfig{logTo: &logs}),
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/subscribe", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("subscribe before ready = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("warming-up 503 missing Retry-After")
	}
}

// TestSubscribeCap checks the registry cap surfaces as a retryable 503.
func TestSubscribeCap(t *testing.T) {
	sys, ts := newSubTestServer(t, atypical.WithSubscriptions(1))

	resp, err := http.Get(ts.URL + "/subscribe?mode=poll&strategy=all")
	if err != nil {
		t.Fatal(err)
	}
	var pr pollResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitActiveSubs(t, sys, 1)

	over, err := http.Get(ts.URL + "/subscribe?mode=poll&strategy=all")
	if err != nil {
		t.Fatal(err)
	}
	over.Body.Close()
	if over.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap subscribe: %d, want 503", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("over-cap 503 missing Retry-After")
	}
}

// TestServeUntilStreamSubscribe boots the full server with -stream and
// checks a live SSE subscription receives pushes from the replay driver.
func TestServeUntilStreamSubscribe(t *testing.T) {
	addrs := make(map[string]string)
	var mu sync.Mutex
	var logs lockedBuffer
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		done <- serveUntil(ctx, serveConfig{
			addr:        "127.0.0.1:0",
			metricsAddr: "127.0.0.1:0",
			sensors:     30, seed: 7, months: 1, days: 7, deltaS: 0.02,
			maxInflight: 4, queryTimeout: 10 * time.Second, drain: 5 * time.Second,
			slowQuery: -1, subBuffer: 1 << 12,
			stream: true, streamRate: 0,
			onListen: func(name string, a net.Addr) {
				mu.Lock()
				addrs[name] = a.String()
				mu.Unlock()
			},
			logTo: &logs,
		})
	}()

	api := waitForAddr(t, &mu, addrs, "query API")
	metrics := waitForAddr(t, &mu, addrs, "metrics and pprof")
	waitForReady(t, "http://"+api+"/readyz")

	sctx, scancel := context.WithTimeout(ctx, 60*time.Second)
	defer scancel()
	req, err := http.NewRequestWithContext(sctx, "GET",
		"http://"+api+"/subscribe?strategy=all&days=7&deltas=0.0005", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d, want 200", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	if event, _ := readSSEEvent(t, br); event != "subscribed" {
		t.Fatalf("first event = %q, want subscribed", event)
	}
	// The replay driver cycles the generated month forever, so a push must
	// eventually arrive without the test driving anything itself.
	for {
		event, data := readSSEEvent(t, br)
		if event != "push" {
			continue
		}
		var p pushJSON
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Fatalf("push event not JSON: %v\n%s", err, data)
		}
		if p.TsUnixNS <= 0 || p.Seq == 0 {
			t.Fatalf("push missing bookkeeping: %+v", p)
		}
		break
	}
	resp.Body.Close()

	// The subscription metrics made it to the operational surface.
	mbody := string(getOK(t, "http://"+metrics+"/metrics"))
	if !strings.Contains(mbody, "atyp_sub_pushes_total") || !strings.Contains(mbody, "atyp_sub_active") {
		t.Errorf("subscription metrics missing from /metrics:\n%.400s", mbody)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serveUntil exit code = %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serveUntil did not drain after cancel")
	}
}
