package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/cpskit/atypical"
)

// serveSystem builds a small ingested system behind a ready API handler.
func serveSystem(t *testing.T, options ...atypical.Option) (*atypical.System, http.Handler) {
	t.Helper()
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 40
	cfg.DaysPerMonth = 7
	sys, err := atypical.NewSystem(cfg, options...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IngestCtx(context.Background(), sys.GenerateMonth(0).Atypical); err != nil {
		t.Fatal(err)
	}
	var ready atomic.Bool
	ready.Store(true)
	var logs lockedBuffer
	h := newAPIHandler(apiConfig{
		sys: sys, ready: &ready, slowQuery: -1,
		logger: newLogger(serveConfig{logTo: &logs}),
	})
	return sys, h
}

// The non-deterministic parts of a query response: macro IDs (freshly
// minted per run from the shared generator — in the id field and echoed in
// description text) and elapsed wall time. Everything else must match byte
// for byte.
var (
	volatileJSON = regexp.MustCompile(`"(id|elapsed_ms)": [0-9.e+-]+`)
	volatileDesc = regexp.MustCompile(`cluster \d+:`)
)

func normalize(body []byte) string {
	s := volatileJSON.ReplaceAllString(string(body), `"$1": X`)
	return volatileDesc.ReplaceAllString(s, "cluster X:")
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// The same logical query must answer byte-identically whether it arrives as
// GET parameters or a POST QueryRequest body (modulo minted IDs and timing).
func TestQueryPostMatchesGet(t *testing.T) {
	_, h := serveSystem(t)
	for _, tc := range []struct {
		name, get, post string
	}{
		{"gui", "/query?strategy=gui&from=0&days=7", `{"strategy":"gui","first_day":0,"days":7}`},
		{"all-defaults", "/query?strategy=all", `{"strategy":"all"}`},
		{"pru-range", "/query?strategy=pru&from=2&days=3", `{"strategy":"pru","first_day":2,"days":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			get := do(t, h, "GET", tc.get, "")
			if get.Code != http.StatusOK {
				t.Fatalf("GET = %d: %s", get.Code, get.Body.String())
			}
			post := do(t, h, "POST", "/query", tc.post)
			if post.Code != http.StatusOK {
				t.Fatalf("POST = %d: %s", post.Code, post.Body.String())
			}
			g, p := normalize(get.Body.Bytes()), normalize(post.Body.Bytes())
			if g != p {
				t.Fatalf("GET and POST diverged:\nGET:  %s\nPOST: %s", g, p)
			}
			if !strings.Contains(g, `"candidate_micros"`) {
				t.Fatalf("response missing report fields: %s", g)
			}
		})
	}
}

func TestQueryPostValidation(t *testing.T) {
	_, h := serveSystem(t)
	if rec := do(t, h, "POST", "/query", `{"strategy":"gui","bogus":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", rec.Code)
	}
	if rec := do(t, h, "POST", "/query", `{"strategy":"nope"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad strategy = %d, want 400", rec.Code)
	}
	if rec := do(t, h, "POST", "/query", `not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", rec.Code)
	}
	// A request that decodes fine but fails QueryRequest.Validate answers a
	// structured 400: machine-matchable code plus the offending field.
	for _, body := range []string{
		`{"strategy":"all","days":-3}`,
		`{"strategy":"all","delta_s":-0.5}`,
	} {
		rec := do(t, h, "POST", "/query", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("invalid request %s = %d, want 400", body, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("invalid request %s Content-Type = %q, want application/json", body, ct)
		}
		if got := rec.Body.String(); !strings.Contains(got, `"error": "invalid_request"`) ||
			!strings.Contains(got, "atypical: invalid query request") {
			t.Errorf("invalid request %s body not structured:\n%s", body, got)
		}
	}
	// A box scope narrows the query without erroring.
	rec := do(t, h, "POST", "/query",
		`{"strategy":"all","box":{"min_lat":0,"min_lon":0,"max_lat":90,"max_lon":180}}`)
	if rec.Code != http.StatusOK {
		t.Errorf("box query = %d: %s", rec.Code, rec.Body.String())
	}
}

// /readyz on a sharded system lists every shard and turns 503 as soon as one
// is unreachable.
func TestReadyzPerShard(t *testing.T) {
	_, h := serveSystem(t, atypical.WithShards(2))
	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("local shards readyz = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{"ready", "shard0 ready", "shard1 ready"} {
		if !strings.Contains(body, want) {
			t.Errorf("readyz body missing %q:\n%s", want, body)
		}
	}

	deadSrv := httptest.NewServer(http.NewServeMux())
	dead := deadSrv.URL
	deadSrv.Close()
	_, hDown := serveSystem(t, atypical.WithShardServers(dead, dead))
	rec = do(t, hDown, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead shards readyz = %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "not ready") || !strings.Contains(body, "2 of 2 shards") {
		t.Errorf("degraded readyz body:\n%s", body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("degraded readyz missing Retry-After")
	}
}

// A serving coordinator that lost a shard answers the partial report with the
// degradation flagged in the JSON; a client refusing partials gets 503.
func TestQueryPartialSurface(t *testing.T) {
	cfg := atypical.DefaultConfig()
	cfg.Sensors = 40
	cfg.DaysPerMonth = 7
	data, err := atypical.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := data.IngestCtx(context.Background(), data.GenerateMonth(0).Atypical); err != nil {
		t.Fatal(err)
	}
	sh, err := data.ShardHandler(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(atypical.ShardQueryPath, sh)
	live := httptest.NewServer(mux)
	defer live.Close()
	deadSrv := httptest.NewServer(http.NewServeMux())
	dead := deadSrv.URL
	deadSrv.Close()

	_, h := serveSystem(t, atypical.WithShardServers(live.URL, dead))
	rec := do(t, h, "GET", "/query?strategy=all&from=0&days=7", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("partial GET = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"partial": true`) || !strings.Contains(body, `"shard1"`) {
		t.Fatalf("partial answer not flagged:\n%s", body)
	}

	rec = do(t, h, "POST", "/query", `{"strategy":"all","allow_partial":false}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("allow_partial=false on degraded system = %d, want 503", rec.Code)
	}
}
