package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
)

// telemetryServer is an httptest server over a registry with one running
// PHFTL cell and one queued baseline — the shape watop -http polls.
func telemetryServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	c := reg.OpenCell("#52/PHFTL", registry.CellMeta{Trace: "#52", Scheme: "PHFTL", TargetOps: 1000})
	c.SetState(registry.StateRunning)
	c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 5, F0: 0.4})
	c.Record(obs.Event{Kind: obs.KindWindowRetrain, Clock: 7})
	c.PublishSample(obs.Sample{
		Clock:         400,
		IntervalWA:    1.25,
		CumWA:         1.5,
		FreeSB:        9,
		Threshold:     900,
		CacheHitRatio: 0.8,
		LatencyP50MS:  math.NaN(),
		LatencyP99MS:  math.NaN(),
		WearSkew:      math.NaN(),
		WearCoV:       math.NaN(),
	}, registry.FTLTotals{UserWrites: 400, GCWrites: 80})
	reg.OpenCell("#52/Base", registry.CellMeta{Trace: "#52", Scheme: "Base"})
	srv := httptest.NewServer(httpd.Handler(reg))
	t.Cleanup(srv.Close)
	return srv, reg
}

// TestHTTPPollerFoldsIntoModel pins the -http source against the model: one
// poll must land the picked cell's gauges as a sample and drain the event
// ring, and a second poll must resume at the cursor without double-counting.
func TestHTTPPollerFoldsIntoModel(t *testing.T) {
	srv, reg := telemetryServer(t)
	m := newModel("", 80)
	p := newHTTPPoller(srv.URL)
	if err := p.poll(m); err != nil {
		t.Fatal(err)
	}
	if m.clock != 400 || m.samples != 1 {
		t.Fatalf("sample not folded: clock %d, samples %d", m.clock, m.samples)
	}
	if m.events["gc_start"] != 1 || m.events["window_retrain"] != 1 {
		t.Fatalf("events not drained: %v", m.events)
	}
	if p.since != 2 {
		t.Fatalf("cursor = %d, want 2", p.since)
	}

	// New activity between polls: only the delta arrives.
	cell := reg.Cell("#52/PHFTL")
	cell.Record(obs.Event{Kind: obs.KindGCStart, Clock: 8})
	if err := p.poll(m); err != nil {
		t.Fatal(err)
	}
	if m.events["gc_start"] != 2 {
		t.Fatalf("resumed drain wrong: %v", m.events)
	}
	if m.samples != 2 {
		t.Fatalf("samples = %d after second poll", m.samples)
	}

	frame := m.frame()
	for _, want := range []string{"#52/PHFTL", "samples 2", "fleet", "running:1"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestHTTPPollerTruncatedBodyKeepsCursor is the regression for the client
// half of the cursor-loss bug: the poller used to advance its ?since= cursor
// from X-Next-Seq before reading the body, so a response truncated
// mid-transfer skipped every event it carried. The cursor must move only
// after the body is fully consumed.
func TestHTTPPollerTruncatedBodyKeepsCursor(t *testing.T) {
	reg := registry.New()
	c := reg.OpenCell("#52/PHFTL", registry.CellMeta{Trace: "#52", Scheme: "PHFTL"})
	c.SetState(registry.StateRunning)
	c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 1})
	c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 2})
	inner := httpd.Handler(reg)
	var truncate atomic.Bool
	truncate.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/events" && truncate.CompareAndSwap(true, false) {
			// Mimic a transfer cut mid-body: the headers (including the
			// cursor) arrive intact, but the promised body does not.
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("X-Next-Seq", "2")
			w.Header().Set("Content-Length", "1000")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"seq":1,"ev":"gc_`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	m := newModel("", 80)
	p := newHTTPPoller(srv.URL)
	if err := p.poll(m); err == nil {
		t.Fatal("truncated poll reported success")
	}
	if p.since != 0 {
		t.Fatalf("cursor advanced to %d on a truncated body, want 0", p.since)
	}
	if err := p.poll(m); err != nil {
		t.Fatal(err)
	}
	if m.events["gc_start"] != 2 {
		t.Fatalf("retry delivered %d gc_start events, want 2 (events lost)", m.events["gc_start"])
	}
	if p.since != 2 {
		t.Fatalf("cursor = %d after clean drain, want 2", p.since)
	}
}

// TestPickCell pins the follow heuristic: -run filter wins, then the first
// running cell, then the first with progress, then the first registered.
func TestPickCell(t *testing.T) {
	cells := []registry.CellJSON{
		{Cell: "a", State: "queued"},
		{Cell: "b", State: "queued", Ops: 10},
		{Cell: "c", State: "running"},
	}
	if got := pickCell(cells, "b"); got == nil || got.Cell != "b" {
		t.Fatalf("run filter: %+v", got)
	}
	if got := pickCell(cells, "missing"); got != nil {
		t.Fatalf("missing run filter matched %+v", got)
	}
	if got := pickCell(cells, ""); got == nil || got.Cell != "c" {
		t.Fatalf("running preference: %+v", got)
	}
	if got := pickCell(cells[:2], ""); got == nil || got.Cell != "b" {
		t.Fatalf("progress preference: %+v", got)
	}
	if got := pickCell(cells[:1], ""); got == nil || got.Cell != "a" {
		t.Fatalf("first fallback: %+v", got)
	}
	if got := pickCell(nil, ""); got != nil {
		t.Fatalf("empty cells matched %+v", got)
	}
}

// TestWatopHTTPOnce drives the full -http -once path end to end.
func TestWatopHTTPOnce(t *testing.T) {
	srv, _ := telemetryServer(t)
	var b strings.Builder
	if err := watopHTTP(srv.URL, true, 0, 80, "", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "#52/PHFTL") {
		t.Fatalf("frame missing cell:\n%s", b.String())
	}
}

// TestWatopHTTPLiveExit pins the clean-shutdown path: after at least one
// successful poll, a vanished server means the benchmark finished — the
// dashboard renders a final frame and exits nil rather than erroring.
func TestWatopHTTPLiveExit(t *testing.T) {
	srv, _ := telemetryServer(t)
	go func() {
		time.Sleep(150 * time.Millisecond)
		srv.Close()
	}()
	var b strings.Builder
	if err := watopHTTP(srv.URL, false, 20*time.Millisecond, 80, "", &b); err != nil {
		t.Fatalf("live exit: %v", err)
	}
	if !strings.Contains(b.String(), "#52/PHFTL") {
		t.Fatal("no frames rendered before exit")
	}
}

// TestWatopHTTPUnreachable pins the immediate-failure path: a target that
// never answers is an error, not an empty dashboard.
func TestWatopHTTPUnreachable(t *testing.T) {
	var b strings.Builder
	if err := watopHTTP("127.0.0.1:1", false, time.Millisecond, 80, "", &b); err == nil {
		t.Fatal("unreachable server accepted")
	}
}

// TestNewHTTPPollerNormalization pins the target spellings the flag accepts.
func TestNewHTTPPollerNormalization(t *testing.T) {
	cases := map[string]string{
		":9090":                  "http://localhost:9090",
		"host:9090":              "http://host:9090",
		"http://host:9090/":      "http://host:9090",
		"https://host:9090":      "https://host:9090",
		"http://host:9090/path/": "http://host:9090/path",
	}
	for in, want := range cases {
		if got := newHTTPPoller(in).base; got != want {
			t.Errorf("newHTTPPoller(%q).base = %q, want %q", in, got, want)
		}
	}
}
