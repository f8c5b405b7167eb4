package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
)

// line is the loose shape of one telemetry JSONL line. Gauge fields are
// pointers so an omitted field (a NaN gauge at the emitter) stays
// distinguishable from a recorded zero. Unknown fields are ignored, so
// watop keeps working when the stream grows new columns.
type line struct {
	Ev         string   `json:"ev"`
	Run        string   `json:"run"`
	Clock      uint64   `json:"clock"`
	IntervalWA *float64 `json:"interval_wa"`
	CumWA      *float64 `json:"cum_wa"`
	Threshold  *float64 `json:"threshold"`
	CacheHit   *float64 `json:"cache_hit"`
	WearSkew   *float64 `json:"wear_skew"`
	WearCoV    *float64 `json:"wear_cov"`
	FreeSB     *int     `json:"free_sb"`
	Die        *int     `json:"die"`
	EraseCount *int     `json:"erase_count"`
}

// model accumulates a telemetry stream into the state one frame renders
// from: rolling gauge windows, per-die erase totals, and event counts.
type model struct {
	run   string // filter: when set, lines tagged with other runs are skipped
	width int

	lines   uint64 // parsed lines (post filter)
	badLine uint64 // unparsable lines (skipped; a tail can cut a line mid-byte)
	clock   uint64
	runSeen string

	// Gauge windows: the newest width observations, oldest first.
	intervalWA, threshold, cacheHit, wearSkew []float64

	lastCumWA, lastWearCoV float64
	freeSB                 int
	samples                uint64

	dieErases  []uint64 // grows to the highest die index seen
	events     map[string]uint64
	hasCumWA   bool
	hasWearCoV bool

	// fleet is the latest /api/v1/fleet document (HTTP mode only; nil until
	// the first successful fetch keeps the pane out of JSONL-driven frames).
	fleet *httpd.FleetJSON
}

// setFleet installs the fleet-summary document rendered as the fleet pane.
func (m *model) setFleet(f *httpd.FleetJSON) { m.fleet = f }

func newModel(run string, width int) *model {
	if width < 16 {
		width = 16
	}
	return &model{run: run, width: width, events: map[string]uint64{}}
}

// push appends v to a gauge window, keeping its newest m.width values. NaN
// is skipped: a NaN hole would poison the sparkline's min/max scaling.
func (m *model) push(w []float64, v float64) []float64 {
	if math.IsNaN(v) {
		return w
	}
	if len(w) == m.width {
		w = append(w[:0], w[1:]...)
	}
	return append(w, v)
}

// consume folds one raw JSONL line into the model. Blank and unparsable
// lines are counted and skipped, never fatal: a live tail regularly sees a
// final line that is still being written.
func (m *model) consume(raw []byte) {
	if len(raw) == 0 {
		return
	}
	var l line
	if err := json.Unmarshal(raw, &l); err != nil || l.Ev == "" {
		m.badLine++
		return
	}
	m.apply(l)
}

// apply folds one parsed line into the model (the HTTP poller builds its
// sample lines directly instead of through JSON).
func (m *model) apply(l line) {
	if m.run != "" && l.Run != m.run {
		return
	}
	m.lines++
	if l.Run != "" {
		m.runSeen = l.Run
	}
	if l.Clock > m.clock {
		m.clock = l.Clock
	}
	switch l.Ev {
	case "sample":
		m.samples++
		if l.IntervalWA != nil {
			m.intervalWA = m.push(m.intervalWA, *l.IntervalWA)
		}
		if l.Threshold != nil {
			m.threshold = m.push(m.threshold, *l.Threshold)
		}
		if l.CacheHit != nil {
			m.cacheHit = m.push(m.cacheHit, *l.CacheHit)
		}
		if l.WearSkew != nil {
			m.wearSkew = m.push(m.wearSkew, *l.WearSkew)
		}
		if l.CumWA != nil {
			m.lastCumWA, m.hasCumWA = *l.CumWA, true
		}
		if l.WearCoV != nil {
			m.lastWearCoV, m.hasWearCoV = *l.WearCoV, true
		}
		if l.FreeSB != nil {
			m.freeSB = *l.FreeSB
		}
	case "erase":
		if l.Die != nil && *l.Die >= 0 {
			for len(m.dieErases) <= *l.Die {
				m.dieErases = append(m.dieErases, 0)
			}
			m.dieErases[*l.Die]++
		}
		m.events[l.Ev]++
	default:
		m.events[l.Ev]++
	}
}

// distCells renders one WA distribution as " p50/p90/p99/max (n)", or " -"
// when the distribution is empty (quantiles omitted on the wire).
func distCells(d registry.DistJSON) string {
	if d.Count == 0 || d.P50 == nil || d.P90 == nil || d.P99 == nil || d.Max == nil {
		return " -"
	}
	return fmt.Sprintf(" %.2f/%.2f/%.2f/%.2f (%d)", *d.P50, *d.P90, *d.P99, *d.Max, d.Count)
}

// gaugeRow renders one sparkline row: label, strip, current value.
func (m *model) gaugeRow(b *strings.Builder, label string, w []float64, format string) {
	fmt.Fprintf(b, "  %-12s %s  ", label, sparkline(w, m.width))
	if len(w) == 0 {
		b.WriteString("-\n")
		return
	}
	fmt.Fprintf(b, format+"\n", w[len(w)-1])
}

// frame renders the dashboard as one plain-text block (no terminal control;
// the caller owns screen clearing).
func (m *model) frame() string {
	var b strings.Builder
	b.WriteString("watop — PHFTL live telemetry")
	if m.runSeen != "" {
		fmt.Fprintf(&b, " [run %s]", m.runSeen)
	}
	fmt.Fprintf(&b, "\n  clock %d  lines %d  samples %d", m.clock, m.lines, m.samples)
	if m.hasCumWA {
		fmt.Fprintf(&b, "  cum-wa %.1f%%", m.lastCumWA*100)
	}
	if m.freeSB > 0 {
		fmt.Fprintf(&b, "  free-sb %d", m.freeSB)
	}
	if m.badLine > 0 {
		fmt.Fprintf(&b, "  (%d unparsable)", m.badLine)
	}
	b.WriteString("\n\n")
	m.gaugeRow(&b, "interval-wa", m.intervalWA, "%.3f")
	m.gaugeRow(&b, "threshold", m.threshold, "%.0f")
	m.gaugeRow(&b, "cache-hit", m.cacheHit, "%.3f")
	m.gaugeRow(&b, "wear-skew", m.wearSkew, "%.3f")
	if m.hasWearCoV {
		fmt.Fprintf(&b, "  %-12s %*s  %.3f\n", "wear-cov", m.width, "", m.lastWearCoV)
	}
	if len(m.dieErases) > 0 {
		b.WriteString("\n  per-die erases\n")
		maxE := uint64(0)
		for _, e := range m.dieErases {
			if e > maxE {
				maxE = e
			}
		}
		for die, e := range m.dieErases {
			fmt.Fprintf(&b, "    die %-2d |%s| %d\n", die,
				bar(float64(e), float64(maxE), m.width), e)
		}
	}
	if f := m.fleet; f != nil {
		b.WriteString("\n  fleet ")
		for _, st := range []string{"queued", "running", "done", "failed", "cancelled"} {
			if n := f.Cells[st]; n > 0 {
				fmt.Fprintf(&b, " %s:%d", st, n)
			}
		}
		fmt.Fprintf(&b, "  %.0f ops/s\n", f.OpsPerSec)
		for _, s := range f.Schemes {
			fmt.Fprintf(&b, "    %-8s wa%s  final%s\n",
				s.Scheme, distCells(s.IntervalWA), distCells(s.FinalWA))
		}
	}
	if len(m.events) > 0 {
		b.WriteString("\n  events ")
		kinds := make([]string, 0, len(m.events))
		for k := range m.events {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for i, k := range kinds {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%s:%d", k, m.events[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
