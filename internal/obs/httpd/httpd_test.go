package httpd

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
)

// populated builds a registry with one running PHFTL cell and one queued
// baseline, the shape a scrape mid-benchmark sees.
func populated(t *testing.T) *registry.Registry {
	t.Helper()
	r := registry.New()
	c := r.OpenCell("#52/PHFTL", registry.CellMeta{Trace: "#52", Scheme: "PHFTL", TargetOps: 1000})
	c.SetState(registry.StateRunning)
	c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 5, F0: 0.4})
	c.Record(obs.Event{Kind: obs.KindGCEnd, Clock: 6})
	c.Record(obs.Event{Kind: obs.KindWindowRetrain, Clock: 7})
	c.PublishSample(obs.Sample{
		Clock:         500,
		IntervalWA:    1.2,
		CumWA:         1.3,
		FreeSB:        12,
		Threshold:     900,
		CacheHitRatio: 0.75,
		LatencyP50MS:  math.NaN(),
		LatencyP99MS:  math.NaN(),
		WearSkew:      1.1,
		WearCoV:       0.05,
	}, registry.FTLTotals{UserWrites: 500, GCWrites: 100, MetaWrites: 20})
	r.OpenCell("#52/Base", registry.CellMeta{Trace: "#52", Scheme: "Base", TargetOps: 1000})
	return r
}

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp, body
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(populated(t)))
	defer srv.Close()
	resp, body := get(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	if err := CheckExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`phftl_cell_ops_total{cell="#52/PHFTL"} 500`,
		`phftl_cell_events_total{cell="#52/PHFTL",kind="gc_start"} 1`,
		`phftl_cell_cum_wa{cell="#52/PHFTL"} 1.3`,
		`phftl_cell_state{cell="#52/Base"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q in exposition", want)
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(populated(t)))
	defer srv.Close()
	resp, body := get(t, srv, "/api/v1/status")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var st StatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if st.Service != "phftl" || st.GoVersion == "" {
		t.Fatalf("identity wrong: %+v", st)
	}
	if st.Ops != 500 || st.TargetOps != 2000 || st.Events != 3 {
		t.Fatalf("aggregate wrong: %+v", st)
	}
	if st.Cells["running"] != 1 || st.Cells["queued"] != 1 {
		t.Fatalf("cell states wrong: %v", st.Cells)
	}
	if st.ETASec == nil || *st.ETASec <= 0 {
		t.Fatalf("ETA missing with target ahead of ops: %+v", st.ETASec)
	}
}

func TestCellsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(populated(t)))
	defer srv.Close()
	_, body := get(t, srv, "/api/v1/cells")
	var doc CellsJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if len(doc.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(doc.Cells))
	}
	phftl, base := doc.Cells[0], doc.Cells[1]
	if phftl.Cell != "#52/PHFTL" || base.Cell != "#52/Base" {
		t.Fatalf("registration order not preserved: %s, %s", phftl.Cell, base.Cell)
	}
	if phftl.State != "running" || phftl.Ops != 500 || phftl.UserWrites != 500 || phftl.GCPasses != 1 {
		t.Fatalf("phftl cell wrong: %+v", phftl)
	}
	if phftl.CumWA == nil || *phftl.CumWA != 1.3 || phftl.CacheHit == nil || *phftl.CacheHit != 0.75 {
		t.Fatalf("phftl gauges wrong: %+v", phftl)
	}
	if phftl.Events["gc_start"] != 1 || phftl.Events["window_retrain"] != 1 {
		t.Fatalf("phftl events wrong: %v", phftl.Events)
	}
	// The queued baseline never published: every optional gauge must be
	// absent, not zero.
	if base.State != "queued" || base.Ops != 0 {
		t.Fatalf("base cell wrong: %+v", base)
	}
	if base.IntervalWA != nil || base.CumWA != nil || base.Threshold != nil ||
		base.CacheHit != nil || base.WearSkew != nil || base.FreeSB != nil {
		t.Fatalf("unobserved gauges present: %s", body)
	}
	if strings.Contains(string(body), `"cum_wa":null`) {
		t.Fatalf("null gauge serialized instead of omitted:\n%s", body)
	}
}

func TestEventsEndpointDrain(t *testing.T) {
	reg := populated(t)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, body := get(t, srv, "/api/v1/events?limit=2")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("limit ignored: %d lines", len(lines))
	}
	var first struct {
		Seq uint64 `json:"seq"`
		Ev  string `json:"ev"`
		Run string `json:"run"`
		C   uint64 `json:"clock"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("decode %q: %v", lines[0], err)
	}
	if first.Seq != 1 || first.Ev != "gc_start" || first.Run != "#52/PHFTL" || first.C != 5 {
		t.Fatalf("first event wrong: %+v", first)
	}
	next := resp.Header.Get("X-Next-Seq")
	if next != "2" {
		t.Fatalf("X-Next-Seq = %q, want 2 (last delivered seq, not the ring head)", next)
	}

	// Resuming from the header picks up exactly where the truncated page
	// stopped: that is the cursor contract.
	_, body = get(t, srv, "/api/v1/events?since="+next)
	rest := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(rest) != 1 || !strings.Contains(rest[0], `"seq":3`) {
		t.Fatalf("resume drain wrong:\n%s", body)
	}

	// Fully drained: empty body, cursor unchanged.
	resp, body = get(t, srv, "/api/v1/events?since=3")
	if len(body) != 0 || resp.Header.Get("X-Next-Seq") != "3" {
		t.Fatalf("drained endpoint returned %q, X-Next-Seq %q", body, resp.Header.Get("X-Next-Seq"))
	}

	// Kind filter.
	_, body = get(t, srv, "/api/v1/events?kind=gc_end")
	filtered := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(filtered) != 1 || !strings.Contains(filtered[0], `"ev":"gc_end"`) {
		t.Fatalf("kind filter wrong:\n%s", body)
	}
}

// TestEventsEndpointTruncatedDrainNoLoss is the HTTP-level regression for the
// cursor-loss bug: a client that drains the ring in limit-truncated pages,
// advancing ?since= to each response's X-Next-Seq, must see every sequence
// exactly once. The old handler stamped the ring head into X-Next-Seq on
// truncated pages, silently skipping everything between the last returned
// line and the head.
func TestEventsEndpointTruncatedDrainNoLoss(t *testing.T) {
	reg := registry.New()
	c := reg.OpenCell("#52/PHFTL", registry.CellMeta{Trace: "#52", Scheme: "PHFTL"})
	const total = 57
	for i := 0; i < total; i++ {
		c.Record(obs.Event{Kind: obs.KindGCStart, Clock: uint64(i)})
	}
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	seen := make(map[uint64]int)
	since := uint64(0)
	for polls := 0; ; polls++ {
		if polls > total {
			t.Fatalf("drain did not terminate after %d polls (cursor stuck at %d)", polls, since)
		}
		resp, body := get(t, srv, "/api/v1/events?limit=10&since="+strconv.FormatUint(since, 10))
		next, err := strconv.ParseUint(resp.Header.Get("X-Next-Seq"), 10, 64)
		if err != nil {
			t.Fatalf("bad X-Next-Seq %q: %v", resp.Header.Get("X-Next-Seq"), err)
		}
		if next < since {
			t.Fatalf("cursor went backwards: %d -> %d", since, next)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if line == "" {
				continue
			}
			var ev struct {
				Seq uint64 `json:"seq"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("decode %q: %v", line, err)
			}
			seen[ev.Seq]++
		}
		if len(body) == 0 {
			break // drained
		}
		since = next
	}
	if len(seen) != total {
		t.Fatalf("drain delivered %d distinct seqs, want %d (events lost)", len(seen), total)
	}
	for seq := uint64(1); seq <= total; seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d delivered %d times, want exactly once", seq, seen[seq])
		}
	}
}

// fakeController records control-plane calls for the POST endpoint tests.
type fakeController struct {
	submitted []CellSpec
	submitErr error
	cancelErr error
	cancelled []string
}

func (f *fakeController) SubmitCell(spec CellSpec) (string, error) {
	if f.submitErr != nil {
		return "", f.submitErr
	}
	f.submitted = append(f.submitted, spec)
	return spec.Trace + "/" + spec.Scheme + "@j1", nil
}

func (f *fakeController) CancelCell(name string) error {
	if f.cancelErr != nil {
		return f.cancelErr
	}
	f.cancelled = append(f.cancelled, name)
	return nil
}

func post(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s read: %v", path, err)
	}
	return resp, b
}

func TestControlAPISubmitAndCancel(t *testing.T) {
	ctrl := &fakeController{}
	srv := httptest.NewServer(HandlerWith(populated(t), ctrl))
	defer srv.Close()

	// cell_workers is a retired field: unknown fields are ignored, so clients
	// that still send it keep working.
	resp, body := post(t, srv, "/api/v1/cells", `{"trace":"#52","scheme":"PHFTL","drive_writes":2,"cell_workers":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202: %s", resp.StatusCode, body)
	}
	var sub SubmitJSON
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if sub.Cell != "#52/PHFTL@j1" || sub.State != "queued" {
		t.Fatalf("submit response wrong: %+v", sub)
	}
	if len(ctrl.submitted) != 1 || ctrl.submitted[0].DriveWrites != 2 {
		t.Fatalf("controller saw %+v", ctrl.submitted)
	}

	// Cell names contain '/' and '#': the cancel path segment must be
	// path-escaped and still route.
	resp, body = post(t, srv, "/api/v1/cells/"+url.PathEscape("#52/PHFTL@j1")+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.State != "cancelled" {
		t.Fatalf("cancel response wrong: %+v", sub)
	}
	if len(ctrl.cancelled) != 1 || ctrl.cancelled[0] != "#52/PHFTL@j1" {
		t.Fatalf("controller saw cancels %v", ctrl.cancelled)
	}

	// GET /api/v1/cells still serves the listing with a POST handler present.
	if resp, _ := get(t, srv, "/api/v1/cells"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cells status %d", resp.StatusCode)
	}
}

func TestControlAPIErrors(t *testing.T) {
	ctrl := &fakeController{}
	srv := httptest.NewServer(HandlerWith(populated(t), ctrl))
	defer srv.Close()

	if resp, _ := post(t, srv, "/api/v1/cells", `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec JSON: status %d, want 400", resp.StatusCode)
	}
	ctrl.submitErr = errors.New("unknown trace \"nope\"")
	if resp, _ := post(t, srv, "/api/v1/cells", `{"trace":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rejected spec: status %d, want 400", resp.StatusCode)
	}
	ctrl.cancelErr = ErrUnknownCell
	if resp, _ := post(t, srv, "/api/v1/cells/ghost/cancel", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cell cancel: status %d, want 404", resp.StatusCode)
	}
	ctrl.cancelErr = ErrCellTerminal
	if resp, _ := post(t, srv, "/api/v1/cells/done/cancel", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("terminal cell cancel: status %d, want 409", resp.StatusCode)
	}

	// Without a controller both POST endpoints answer 501, and the telemetry
	// endpoints are unaffected.
	bare := httptest.NewServer(Handler(populated(t)))
	defer bare.Close()
	if resp, _ := post(t, bare, "/api/v1/cells", `{}`); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("submit without controller: status %d, want 501", resp.StatusCode)
	}
	if resp, _ := post(t, bare, "/api/v1/cells/x/cancel", ""); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("cancel without controller: status %d, want 501", resp.StatusCode)
	}
}

func TestFleetEndpoint(t *testing.T) {
	reg := populated(t)
	reg.Cell("#52/PHFTL").PublishFinalWA(1.25)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, body := get(t, srv, "/api/v1/fleet")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var doc FleetJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if doc.Cells["running"] != 1 || doc.Cells["queued"] != 1 {
		t.Fatalf("cell states wrong: %v", doc.Cells)
	}
	if doc.IntervalWA.Count != 1 || doc.IntervalWA.P50 == nil {
		t.Fatalf("fleet interval WA wrong: %+v", doc.IntervalWA)
	}
	if len(doc.Schemes) != 2 || doc.Schemes[0].Scheme != "Base" || doc.Schemes[1].Scheme != "PHFTL" {
		t.Fatalf("schemes wrong: %s", body)
	}
	p := doc.Schemes[1]
	if p.FinalWA.Count != 1 || p.FinalWA.Max == nil || *p.FinalWA.Max != 1.25 {
		t.Fatalf("PHFTL final WA wrong: %+v", p.FinalWA)
	}
	// The never-published Base scheme's quantiles are omitted, not null.
	if strings.Contains(string(body), "null") {
		t.Fatalf("null quantile serialized instead of omitted:\n%s", body)
	}
}

func TestEventsEndpointBadParams(t *testing.T) {
	srv := httptest.NewServer(Handler(populated(t)))
	defer srv.Close()
	for _, path := range []string{
		"/api/v1/events?kind=nope",
		"/api/v1/events?since=abc",
		"/api/v1/events?limit=0",
		"/api/v1/events?limit=-5",
	} {
		resp, _ := get(t, srv, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestIndexAndPprof(t *testing.T) {
	srv := httptest.NewServer(Handler(populated(t)))
	defer srv.Close()
	resp, body := get(t, srv, "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "/api/v1/cells") {
		t.Fatalf("index wrong: %d\n%s", resp.StatusCode, body)
	}
	resp, _ = get(t, srv, "/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
	}
	resp, body = get(t, srv, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index wrong: %d", resp.StatusCode)
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := registry.New()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(srv.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", srv.URL())
	}
	resp, err := http.Get(srv.URL() + "/api/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(srv.URL() + "/api/v1/status"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}
