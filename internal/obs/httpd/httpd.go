// Package httpd is the embedded HTTP telemetry and control surface over a
// metrics registry: the pull-based counterpart to the JSONL/CSV sinks. One
// server per process exposes
//
//	/metrics            Prometheus text exposition v0.0.4
//	/api/v1/status      JSON: process/fleet aggregate (uptime, cell states,
//	                    ops, ops/sec, ETA)
//	/api/v1/cells       GET: per-(trace,scheme) cell state — ops, WA,
//	                    GC passes, threshold, cache hit rate, wear skew
//	                    POST: submit a cell spec to the attached Controller
//	                    (fleet service only; 501 without one)
//	/api/v1/cells/{name}/cancel
//	                    POST: cancel a queued or running cell (the name is
//	                    path-escaped: "#52/PHFTL@j1" → "%2352%2FPHFTL@j1")
//	/api/v1/fleet       JSON: fleet-wide WA percentiles (p50/p90/p99/max
//	                    interval and end-of-run WA per scheme)
//	/api/v1/events      JSONL drain of the bounded event ring
//	                    (?kind=<name>&since=<seq>&limit=<n>)
//	/debug/pprof/       the stdlib profiling mux
//
// The harnesses wire it behind -listen; cmd/phftld attaches a fleet
// Controller; cmd/watop's -http mode polls the JSON endpoints. Read handlers
// only touch the registry (atomics plus short critical sections), so
// scraping during a replay never blocks a cell.
//
// Event-drain cursor contract: every /api/v1/events response carries an
// X-Next-Seq header — poll next with ?since= set to exactly this value. The
// header is the sequence of the last ring slot the scan covered, so a
// limit-truncated response resumes at the first undelivered event; it never
// jumps to the ring head past events the response did not contain.
package httpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
)

// Controller is the control-plane hook behind the POST endpoints: a fleet
// supervisor (internal/fleet) that accepts runtime cell submissions and
// cancellations. A nil Controller serves the telemetry endpoints only.
type Controller interface {
	// SubmitCell validates and enqueues one cell, returning the name the
	// cell was registered under (the handle for /api/v1/cells and cancel).
	SubmitCell(spec CellSpec) (name string, err error)
	// CancelCell cancels a queued or running cell by registered name. It
	// wraps ErrUnknownCell / ErrCellTerminal for the HTTP status mapping.
	CancelCell(name string) error
}

// Sentinel errors a Controller wraps so the handlers can map control-plane
// failures onto HTTP statuses without knowing the implementation.
var (
	// ErrUnknownCell: the named cell was never submitted (404).
	ErrUnknownCell = errors.New("unknown cell")
	// ErrCellTerminal: the cell already reached done/failed/cancelled (409).
	ErrCellTerminal = errors.New("cell already terminal")
)

// CellSpec is the POST /api/v1/cells submission document: one trace×scheme
// replay with its knobs. Zero-valued optional fields select the service
// default DriveWrites or the standard 7% OP geometry. Unknown fields (such as
// the retired cell_workers) are ignored.
type CellSpec struct {
	Trace       string  `json:"trace"`
	Scheme      string  `json:"scheme"`
	DriveWrites int     `json:"drive_writes,omitempty"`
	OP          float64 `json:"op,omitempty"`
}

// SubmitJSON is the POST /api/v1/cells response.
type SubmitJSON struct {
	Cell  string `json:"cell"`
	State string `json:"state"`
}

// StatusJSON is the /api/v1/status document.
type StatusJSON struct {
	Service       string         `json:"service"`
	GoVersion     string         `json:"go_version"`
	UptimeSec     float64        `json:"uptime_sec"`
	Goroutines    int            `json:"goroutines"`
	Cells         map[string]int `json:"cells"` // state name -> count
	Ops           uint64         `json:"ops"`
	TargetOps     uint64         `json:"target_ops,omitempty"`
	OpsPerSec     float64        `json:"ops_per_sec"`
	ETASec        *float64       `json:"eta_sec,omitempty"`
	Events        uint64         `json:"events"`
	EventsDropped uint64         `json:"events_dropped"`
}

// CellsJSON is the /api/v1/cells document, registry.CellsJSON under the
// name the benchmark harness decodes into.
type CellsJSON = registry.CellsJSON

// FleetJSON is the /api/v1/fleet document: fleet-wide WA tail percentiles,
// the aggregation a thousand-drive service exists to serve.
type FleetJSON struct {
	UptimeSec  float64                    `json:"uptime_sec"`
	Cells      map[string]int             `json:"cells"` // state name -> count
	OpsPerSec  float64                    `json:"ops_per_sec"`
	IntervalWA registry.DistJSON          `json:"interval_wa"` // all cells, all schemes
	Schemes    []registry.FleetSchemeJSON `json:"schemes"`
}

// Handler builds the telemetry mux over a registry (no control plane: the
// POST endpoints answer 501). Exposed separately from Serve so tests can
// drive it through net/http/httptest.
func Handler(reg *registry.Registry) http.Handler {
	return HandlerWith(reg, nil)
}

// HandlerWith is Handler plus a control plane: with a non-nil Controller,
// POST /api/v1/cells submits cells and POST /api/v1/cells/{name}/cancel
// cancels them.
func HandlerWith(reg *registry.Registry, ctrl Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Registry state is read under short locks; write errors mean the
		// scraper hung up and need no handling beyond stopping.
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/api/v1/status", func(w http.ResponseWriter, r *http.Request) {
		t := reg.Totals()
		st := StatusJSON{
			Service:       "phftl",
			GoVersion:     runtime.Version(),
			UptimeSec:     reg.UptimeSeconds(),
			Goroutines:    runtime.NumGoroutine(),
			Cells:         make(map[string]int, registry.NumStates),
			Ops:           t.Ops,
			TargetOps:     t.TargetOps,
			Events:        t.Events,
			EventsDropped: reg.EventsDropped(),
		}
		for s := 0; s < registry.NumStates; s++ {
			st.Cells[registry.State(s).String()] = t.Cells[s]
		}
		// Sliding-window rate (shared with the runner progress line), not the
		// lifetime average: after a slow warm-up or on an idle queue the
		// lifetime figure goes arbitrarily stale, and so would the ETA.
		st.OpsPerSec = reg.LiveOpsPerSec()
		if t.TargetOps > t.Ops && st.OpsPerSec > 0 {
			eta := float64(t.TargetOps-t.Ops) / st.OpsPerSec
			st.ETASec = &eta
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("/api/v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		t := reg.Totals()
		doc := FleetJSON{
			UptimeSec: reg.UptimeSeconds(),
			Cells:     make(map[string]int, registry.NumStates),
			OpsPerSec: reg.LiveOpsPerSec(),
		}
		for s := 0; s < registry.NumStates; s++ {
			doc.Cells[registry.State(s).String()] = t.Cells[s]
		}
		doc.IntervalWA, doc.Schemes = reg.FleetWA()
		writeJSON(w, doc)
	})
	mux.HandleFunc("POST /api/v1/cells", func(w http.ResponseWriter, r *http.Request) {
		if ctrl == nil {
			http.Error(w, "no control plane attached (run the fleet service: phftld serve)", http.StatusNotImplemented)
			return
		}
		var spec CellSpec
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&spec); err != nil {
			http.Error(w, fmt.Sprintf("bad cell spec: %v", err), http.StatusBadRequest)
			return
		}
		name, err := ctrl.SubmitCell(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSONStatus(w, http.StatusAccepted, SubmitJSON{Cell: name, State: registry.StateQueued.String()})
	})
	mux.HandleFunc("POST /api/v1/cells/{name}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if ctrl == nil {
			http.Error(w, "no control plane attached (run the fleet service: phftld serve)", http.StatusNotImplemented)
			return
		}
		name := r.PathValue("name")
		if err := ctrl.CancelCell(name); err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrUnknownCell):
				status = http.StatusNotFound
			case errors.Is(err, ErrCellTerminal):
				status = http.StatusConflict
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeJSON(w, SubmitJSON{Cell: name, State: registry.StateCancelled.String()})
	})
	mux.HandleFunc("/api/v1/cells", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/api/v1/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var kind obs.Kind
		if name := q.Get("kind"); name != "" {
			k, ok := obs.KindByName(name)
			if !ok {
				http.Error(w, fmt.Sprintf("unknown kind %q", name), http.StatusBadRequest)
				return
			}
			kind = k
		}
		var since uint64
		if s := q.Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad since %q", s), http.StatusBadRequest)
				return
			}
			since = v
		}
		limit := 1000
		if s := q.Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, fmt.Sprintf("bad limit %q", s), http.StatusBadRequest)
				return
			}
			limit = v
		}
		events, cursor := reg.EventsSince(since, kind, limit)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Next-Seq", strconv.FormatUint(cursor, 10))
		var buf []byte
		for _, se := range events {
			buf = obs.AppendJSONSeq(buf[:0], se.Seq, se.Ev, se.Cell)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "phftl telemetry\n\n"+
			"  /metrics           Prometheus text exposition\n"+
			"  /api/v1/status     fleet aggregate (JSON)\n"+
			"  /api/v1/cells      per-cell state (JSON); POST submits a cell spec\n"+
			"  /api/v1/cells/{name}/cancel  POST cancels a cell (name path-escaped)\n"+
			"  /api/v1/fleet      fleet WA percentiles per scheme (JSON)\n"+
			"  /api/v1/events     event drain (JSONL; ?kind=&since=&limit=)\n"+
			"  /debug/pprof/      runtime profiles\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running telemetry listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving the registry on addr (host:port; :0 picks a free
// port — read the chosen one back with Addr). The server runs until Close.
func Serve(addr string, reg *registry.Registry) (*Server, error) {
	return ServeWith(addr, reg, nil)
}

// ServeWith is Serve plus a control plane, for processes (cmd/phftld) that
// accept cell submissions over HTTP.
func ServeWith(addr string, reg *registry.Registry, ctrl Controller) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpd: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: HandlerWith(reg, ctrl), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		// ErrServerClosed after Close is the clean path; any other serve
		// error leaves the process running without telemetry, which the
		// scraper notices immediately.
		_ = srv.Serve(ln)
	}()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (resolving a :0 request).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener and all active handlers.
func (s *Server) Close() error { return s.srv.Close() }
