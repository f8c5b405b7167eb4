package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
)

// httpPoller drains a -listen telemetry server (phftl wa/perf/sim)
// into the model: per poll it folds one sample built from /api/v1/cells and
// every new event from /api/v1/events (resuming at the ?since= cursor), so the
// dashboard state matches what a JSONL tail of the same run would have
// produced.
type httpPoller struct {
	base   string
	client *http.Client
	since  uint64
	polls  uint64
}

// newHTTPPoller normalizes the target ("host:port", ":9090" or a full URL)
// into a base URL.
func newHTTPPoller(target string) *httpPoller {
	base := strings.TrimRight(target, "/")
	if !strings.Contains(base, "://") {
		if strings.HasPrefix(base, ":") {
			base = "localhost" + base
		}
		base = "http://" + base
	}
	return &httpPoller{base: base, client: &http.Client{Timeout: 5 * time.Second}}
}

func (p *httpPoller) get(path string) (*http.Response, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s: %s", p.base+path, resp.Status, strings.TrimSpace(string(body)))
	}
	return resp, nil
}

// pickCell selects which cell the dashboard follows: the -run match when a
// filter is set, else the first running cell, else the first cell that has
// replayed anything, else the first registered.
func pickCell(cells []registry.CellJSON, run string) *registry.CellJSON {
	if len(cells) == 0 {
		return nil
	}
	if run != "" {
		for i := range cells {
			if cells[i].Cell == run {
				return &cells[i]
			}
		}
		return nil
	}
	for i := range cells {
		if cells[i].State == "running" {
			return &cells[i]
		}
	}
	for i := range cells {
		if cells[i].Ops > 0 {
			return &cells[i]
		}
	}
	return &cells[0]
}

// poll fetches one round of cells + events and folds it into the model.
func (p *httpPoller) poll(m *model) error {
	resp, err := p.get("/api/v1/cells")
	if err != nil {
		return err
	}
	var doc registry.CellsJSON
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode /api/v1/cells: %w", err)
	}
	if c := pickCell(doc.Cells, m.run); c != nil {
		// The cell's gauges as the sample line a JSONL tail would have
		// carried; nil pointers are the sink's omitted NaN gauges.
		l := line{
			Ev: "sample", Run: c.Cell, Clock: c.Ops,
			IntervalWA: c.IntervalWA, CumWA: c.CumWA, Threshold: c.Threshold,
			CacheHit: c.CacheHit, WearSkew: c.WearSkew, WearCoV: c.WearCoV,
		}
		if c.FreeSB != nil {
			fsb := int(*c.FreeSB)
			l.FreeSB = &fsb
		}
		m.apply(l)
	}

	resp, err = p.get("/api/v1/events?since=" + strconv.FormatUint(p.since, 10))
	if err != nil {
		return err
	}
	// Parse the cursor up front but advance it only after the body has been
	// fully read and folded in. Advancing before the read loses events: a
	// response truncated mid-transfer (server restart, connection drop) would
	// move the cursor past lines this poll never delivered, and the next poll
	// would resume beyond them.
	next, nextErr := strconv.ParseUint(resp.Header.Get("X-Next-Seq"), 10, 64)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" {
			m.consume([]byte(line))
		}
	}
	if nextErr == nil {
		p.since = next
	}

	p.fleet(m)
	p.polls++
	return nil
}

// fleet refreshes the fleet-summary pane from /api/v1/fleet. Best-effort: the
// endpoint exists on every server (it is part of the telemetry mux), but a
// transient error just leaves the previous pane in place rather than failing
// the poll.
func (p *httpPoller) fleet(m *model) {
	resp, err := p.get("/api/v1/fleet")
	if err != nil {
		return
	}
	var doc httpd.FleetJSON
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return
	}
	m.setFleet(&doc)
}

// watopHTTP drives the dashboard off an HTTP telemetry server instead of a
// JSONL stream. In live mode the loop ends cleanly when the server goes away
// after at least one successful poll — the benchmark finished and exited —
// rendering the final frame first; an immediately unreachable server is an
// error.
func watopHTTP(target string, once bool, refresh time.Duration, width int, run string, w io.Writer) error {
	m := newModel(run, width)
	p := newHTTPPoller(target)
	if once {
		if err := p.poll(m); err != nil {
			return err
		}
		fmt.Fprint(w, m.frame())
		return nil
	}
	for {
		if err := p.poll(m); err != nil {
			if p.polls == 0 {
				return err
			}
			fmt.Fprint(w, "\x1b[2J\x1b[H", m.frame())
			return nil
		}
		fmt.Fprint(w, "\x1b[2J\x1b[H", m.frame())
		time.Sleep(refresh)
	}
}
