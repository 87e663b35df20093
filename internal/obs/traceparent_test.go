package obs

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestFormatParseTraceparentRoundTrip(t *testing.T) {
	cases := []struct{ trace, span uint64 }{
		{1, 2},
		{0xdeadbeefcafef00d, 0x0123456789abcdef},
		{^uint64(0), 1},
	}
	for _, c := range cases {
		v := FormatTraceparent(c.trace, c.span)
		if !strings.HasPrefix(v, "00-") || !strings.HasSuffix(v, "-01") {
			t.Errorf("FormatTraceparent(%x, %x) = %q: bad framing", c.trace, c.span, v)
		}
		gotTrace, gotSpan, ok := ParseTraceparent(v)
		if !ok || gotTrace != c.trace || gotSpan != c.span {
			t.Errorf("round trip %x/%x → %q → %x/%x ok=%v", c.trace, c.span, v, gotTrace, gotSpan, ok)
		}
	}
	if v := FormatTraceparent(0, 5); v != "" {
		t.Errorf("FormatTraceparent(0, 5) = %q, want empty", v)
	}
	if v := FormatTraceparent(5, 0); v != "" {
		t.Errorf("FormatTraceparent(5, 0) = %q, want empty", v)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short-bad-01",
		"00-00000000000000000000000000000001-0000000000000002",    // missing flags
		"ff-00000000000000000000000000000001-0000000000000002-01", // reserved version
		"zz-00000000000000000000000000000001-0000000000000002-01",
		"00-0000000000000000000000000000000g-0000000000000002-01",
		"00-00000000000000000000000000000000-0000000000000002-01", // zero trace
		"00-00000000000000000000000000000001-0000000000000000-01", // zero span
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", v)
		}
	}
	// Future versions with extra fields are accepted (W3C forward compat).
	if trace, span, ok := ParseTraceparent("01-00000000000000000000000000000abc-0000000000000def-01-extra"); !ok || trace != 0xabc || span != 0xdef {
		t.Errorf("future-version traceparent rejected: %x/%x ok=%v", trace, span, ok)
	}
	// A 128-bit trace ID keeps its low 64 bits.
	if trace, _, ok := ParseTraceparent("00-ffffffffffffffff00000000000000ab-0000000000000001-01"); !ok || trace != 0xab {
		t.Errorf("128-bit trace ID: got %x ok=%v, want low 64 bits ab", trace, ok)
	}
}

func TestInjectExtractContinuesTrace(t *testing.T) {
	var spans []Span
	exp := func(s Span) { spans = append(spans, s) }

	// Client process: a root span injects its IDs into an outbound header.
	cctx, root := Start(WithExporter(context.Background(), exp), "client.request")
	h := http.Header{}
	InjectTraceparent(cctx, h)
	if h.Get(TraceparentHeader) == "" {
		t.Fatal("InjectTraceparent wrote no header under an active span")
	}

	// Server process: extract, then the first span adopts the remote trace.
	sctx := ExtractTraceparent(WithExporter(context.Background(), exp), h)
	_, server := Start(sctx, "http.request")
	if server.TraceID != root.TraceID {
		t.Errorf("server TraceID = %x, want client's %x", server.TraceID, root.TraceID)
	}
	if server.ParentID != root.SpanID {
		t.Errorf("server ParentID = %x, want client's span %x", server.ParentID, root.SpanID)
	}
	if !server.Remote {
		t.Error("server span not marked Remote")
	}

	// A remote-rooted span publishes as a root in the trace ring.
	ring := NewTraceRing(4)
	server.Duration = 1
	ring.Export(*server)
	traces := ring.Snapshot()
	if len(traces) != 1 || traces[0].Root.SpanID != server.SpanID {
		t.Fatalf("remote-rooted span did not publish as a ring root: %+v", traces)
	}

	// A local child under the server span still stages normally.
	sctx2, srv2 := Start(ExtractTraceparent(WithExporter(context.Background(), exp), h), "http.request")
	_, child := Start(sctx2, "query.run")
	if child.TraceID != root.TraceID || child.ParentID != srv2.SpanID || child.Remote {
		t.Errorf("local child under remote root: trace %x parent %x remote %v", child.TraceID, child.ParentID, child.Remote)
	}
	ring2 := NewTraceRing(4)
	ring2.Export(*child)
	if got := ring2.Snapshot(); len(got) != 0 {
		t.Fatalf("local child published before its root: %+v", got)
	}
	ring2.Export(*srv2)
	got := ring2.Snapshot()
	if len(got) != 1 || len(got[0].Children) != 1 || got[0].Children[0].SpanID != child.SpanID {
		t.Fatalf("remote root did not assemble its local children: %+v", got)
	}
}

func TestInjectTraceparentNoSpanIsNoop(t *testing.T) {
	h := http.Header{}
	InjectTraceparent(context.Background(), h)
	if len(h) != 0 {
		t.Errorf("header written without a span: %v", h)
	}
}

func TestExtractTraceparentMalformedIsNoop(t *testing.T) {
	ctx := context.Background()
	h := http.Header{}
	h.Set(TraceparentHeader, "garbage")
	if got := ExtractTraceparent(ctx, h); got != ctx {
		t.Error("malformed traceparent changed the context")
	}
	_, sp := Start(ExtractTraceparent(WithExporter(ctx, func(Span) {}), h), "root")
	if sp.Remote || sp.ParentID != 0 {
		t.Errorf("span after malformed extract: remote %v parent %x", sp.Remote, sp.ParentID)
	}
}

// TestFreshProcessTraceIDsDiffer re-execs the test binary twice and checks
// the first trace ID minted by each fresh process differs — the regression
// test for the counter-from-1 collision bug that broke cross-process
// stitching (two shard servers both minting TraceID 1).
func TestFreshProcessTraceIDsDiffer(t *testing.T) {
	if os.Getenv("OBS_PRINT_FIRST_TRACE_ID") == "1" {
		_, sp := Start(WithExporter(context.Background(), func(Span) {}), "probe")
		fmt.Printf("first-trace-id=%s\n", sp.TraceHex())
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	run := func() string {
		cmd := exec.Command(exe, "-test.run", "TestFreshProcessTraceIDsDiffer")
		cmd.Env = append(os.Environ(), "OBS_PRINT_FIRST_TRACE_ID=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("re-exec: %v\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if id, ok := strings.CutPrefix(line, "first-trace-id="); ok {
				return id
			}
		}
		t.Fatalf("re-exec printed no trace ID:\n%s", out)
		return ""
	}
	first, second := run(), run()
	if first == second {
		t.Fatalf("two fresh processes minted the same first trace ID %s", first)
	}
	if first == idHex(1) || second == idHex(1) {
		t.Fatalf("fresh process minted trace ID 1 (%s, %s): counter not seeded", first, second)
	}
}
