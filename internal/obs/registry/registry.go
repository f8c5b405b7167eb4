// Package registry is the live half of the observability layer: the metric
// set the HTTP telemetry surface (internal/obs/httpd) serves from while a
// replay is still running. Where internal/obs buffers a run's events and
// samples for post-hoc sinks (JSONL/CSV/report), this package keeps
// *current* state — per-cell atomic counts and gauges, fixed-bucket
// histograms layered on internal/metrics, per-cell lifecycle, and a bounded
// global event ring with a monotone sequence cursor — cheap enough to update
// from the replay hot path and safe to scrape concurrently.
//
// The schema is closed: the 17 families of the schema table below, every
// per-cell value a plain field of Cell set up by OpenCell. The write side is
// wired by internal/sim (Observe bridges the event recorder and gauge
// sampler into a Cell) and internal/runner (lifecycle transitions); the read
// side is the Prometheus text exposition (WritePrometheus), the wire
// documents (Snapshot, FleetWA, Totals) and the event drain (EventsSince). A
// nil *Registry everywhere means "not serving": every producer call site
// guards with one nil check, so the disabled path costs the same single
// predictable branch as the rest of internal/obs.
package registry

import (
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/obs"
)

// Histogram is a fixed-bucket histogram layered on metrics.Histogram: the
// same [0, n·width) linear buckets with overflow absorbed by the final
// bucket, the same NaN-drop discipline, and the same midpoint quantile
// estimator — guarded by a mutex so concurrent observers and scrapers stay
// race-free. Histograms sit off the per-write hot path (they are fed per
// sample and per GC pass), so an uncontended mutex is cheaper than a
// lock-free bucket protocol and keeps the race detector meaningful.
type Histogram struct {
	mu  sync.Mutex
	h   *metrics.Histogram
	max float64  // exact observed maximum; NaN until the first observation
	le  []string // rendered le="..." label of each bucket
}

func newHistogram(buckets int, width float64) *Histogram {
	h := &Histogram{h: metrics.NewHistogram(buckets, width), max: math.NaN()}
	for i := 1; i < buckets; i++ {
		h.le = append(h.le, `le="`+strconv.FormatFloat(float64(i)*width, 'g', -1, 64)+`"`)
	}
	h.le = append(h.le, `le="+Inf"`)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return // mirror metrics.Histogram's NaN-drop without touching max
	}
	h.mu.Lock()
	h.h.Add(v)
	if math.IsNaN(h.max) || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// dist summarizes the histogram for /api/v1/fleet; quantiles are left out
// while it is empty, and the maximum while it is not finite.
func (h *Histogram) dist() DistJSON {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := DistJSON{Count: h.h.Count(), Max: opt(h.max)}
	if d.Count > 0 {
		d.P50 = opt(h.h.Quantile(0.50))
		d.P90 = opt(h.h.Quantile(0.90))
		d.P99 = opt(h.h.Quantile(0.99))
	}
	return d
}

// appendTo renders the histogram as cumulative le-bound buckets plus _sum
// and _count, nothing while it is empty.
func (h *Histogram) appendTo(buf []byte, scratch []uint64, name, label string) ([]byte, []uint64) {
	h.mu.Lock()
	scratch = h.h.AppendBuckets(scratch[:0])
	count, sum := h.h.Count(), h.h.Sum()
	h.mu.Unlock()
	if count == 0 {
		return buf, scratch
	}
	var cum uint64
	for i, n := range scratch {
		cum += n
		buf = appendName(buf, name, "_bucket", label, h.le[i])
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = appendName(buf, name, "_sum", label, "")
	buf = strconv.AppendFloat(buf, sum, 'g', -1, 64)
	buf = append(buf, '\n')
	buf = appendName(buf, name, "_count", label, "")
	buf = strconv.AppendUint(buf, count, 10)
	return append(buf, '\n'), scratch
}

// opt maps the NaN ("not observed / not applicable") and infinite values to
// an omitted JSON field.
func opt(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// Indices of the registry-wide histograms (Registry.fleet).
const (
	hGCValidRatio = iota
	hSampleIntervalWA
)

// Indices of a scheme's histograms (schemeHists.h).
const (
	hFinalWA = iota
	hIntervalWA
)

// schemeHists is one scheme's cross-cell WA distributions, shared by every
// cell of the scheme: interval WA fed per sample, final WA once per
// completed run (PublishFinalWA). Together they back /api/v1/fleet.
type schemeHists struct {
	label string // scheme="<escaped>"
	h     [2]*Histogram
}

// Registry is the root object: the cell set, the cross-cell histograms and
// the global event ring. All methods are safe for concurrent use; a cell's
// values are updated with pure atomics (plus one uncontended mutex for a
// histogram or the ring), so hot paths never re-enter the registry maps.
type Registry struct {
	mu      sync.Mutex
	cells   map[string]*Cell
	order   []*Cell        // registration order, the JSON output order
	sorted  []*Cell        // by label, the exposition order
	schemes []*schemeHists // by label, the exposition order

	ring  drainRing
	start time.Time

	// Cross-cell distributions fed by every cell: GC victim valid ratio
	// and per-sample interval WA.
	fleet [2]*Histogram

	// opsRate is the fleet-wide sliding-window ops/sec estimator shared by
	// every live-rate surface (the runner progress line and /api/v1/status),
	// so both report the same figure from the same window.
	opsRate *RateWindow
}

// DefaultEventRingCap bounds the global HTTP-drain event ring. At the
// default per-kind retention (hot meta-cache kinds thinned 1/16) this holds
// minutes of events on the probed cells; older events are overwritten and
// counted, never blocking a writer.
const DefaultEventRingCap = 1 << 14

// New creates an empty registry.
func New() *Registry {
	r := &Registry{
		cells:   make(map[string]*Cell),
		start:   time.Now(),
		opsRate: NewRateWindow(),
	}
	r.ring.init(DefaultEventRingCap)
	// GC victim valid ratio is a true [0, 1] quantity.
	r.fleet[hGCValidRatio] = newHistogram(20, 0.05)
	// Interval WA across cells: 60 × 0.05 buckets cover [0, 3) — the range
	// the paper's trajectories live in — with the usual overflow bucket.
	r.fleet[hSampleIntervalWA] = newHistogram(60, 0.05)
	return r
}

// labelPair renders name="value" with the value escaped per the exposition
// format. Invalid UTF-8 is written as U+FFFD.
func labelPair(name, value string) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteString(`="`)
	for _, r := range value {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// schemeFor returns the shared histograms of the scheme, creating them on
// first use. Called with r.mu held.
func (r *Registry) schemeFor(scheme string) *schemeHists {
	label := labelPair("scheme", scheme)
	i, ok := slices.BinarySearchFunc(r.schemes, label, func(s *schemeHists, l string) int { return strings.Compare(s.label, l) })
	if !ok {
		s := &schemeHists{label: label, h: [2]*Histogram{newHistogram(60, 0.05), newHistogram(60, 0.05)}}
		r.schemes = slices.Insert(r.schemes, i, s)
	}
	return r.schemes[i]
}

// The sources a family is rendered from.
const (
	cellCounter = iota // Cell.totals[slot], one series per cell
	cellGauge          // Cell.gauges[slot], NaN and ±Inf skipped
	cellEvents         // Cell.events, one series per cell and kind
	fleetHist          // Registry.fleet[slot], unlabeled
	schemeHist         // schemeHists.h[slot], one series per scheme
)

// metric is one family of the closed schema.
type metric struct {
	name, help string
	src, slot  int
}

// schema lists the families, sorted by name (the exposition order).
var schema = [...]metric{
	{"phftl_cell_cache_hit_ratio", "Cumulative metadata-cache hit ratio (absent for schemes without a metadata store).", cellGauge, gCacheHit},
	{"phftl_cell_cum_wa", "Cumulative write amplification since the start of the cell.", cellGauge, gCumWA},
	{"phftl_cell_events_total", "Trace events recorded per cell and kind (exact, including ring-thinned events).", cellEvents, 0},
	{"phftl_cell_free_superblocks", "Current free-superblock count.", cellGauge, gFreeSB},
	{"phftl_cell_gc_writes_total", "GC page migrations issued by the cell's FTL.", cellCounter, tGCWrites},
	{"phftl_cell_interval_wa", "Write amplification over the last sampling interval.", cellGauge, gIntervalWA},
	{"phftl_cell_meta_writes_total", "Metadata page programs issued by the cell's FTL (PHFTL only).", cellCounter, tMetaWrites},
	{"phftl_cell_ops_total", "User page writes replayed into the cell (the FTL virtual clock).", cellCounter, tOps},
	{"phftl_cell_state", "Cell lifecycle state: 0 queued, 1 running, 2 done, 3 failed, 4 cancelled.", cellGauge, gState},
	{"phftl_cell_threshold", "PHFTL classification threshold in page-writes (absent for baselines).", cellGauge, gThreshold},
	{"phftl_cell_user_writes_total", "User page programs issued by the cell's FTL.", cellCounter, tUserWrites},
	{"phftl_cell_wear_cov", "Coefficient of variation of per-block erase counts.", cellGauge, gWearCoV},
	{"phftl_cell_wear_skew", "Max/mean per-block erase-count ratio (1.0 = perfectly even).", cellGauge, gWearSkew},
	{"phftl_gc_valid_ratio", "Valid-page ratio of each selected GC victim across all cells.", fleetHist, hGCValidRatio},
	{"phftl_sample_interval_wa", "Per-sample interval write amplification across all cells.", fleetHist, hSampleIntervalWA},
	{"phftl_scheme_final_wa", "End-of-run write amplification of completed cells, by scheme.", schemeHist, hFinalWA},
	{"phftl_scheme_interval_wa", "Per-sample interval write amplification across cells, by scheme.", schemeHist, hIntervalWA},
}

// kindLabel is one event-count slot of a cell and its kind="<name>" label.
type kindLabel struct {
	label string
	slot  int
}

// kindLabels lists every event-count slot sorted by kind name; slot 0 is the
// catch-all "unknown".
var kindLabels = func() []kindLabel {
	ks := make([]kindLabel, obs.NumKinds)
	for k := range ks {
		ks[k].label, ks[k].slot = labelPair("kind", obs.Kind(k).String()), k
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].label < ks[j].label })
	return ks
}()

// appendName appends the series name, its suffix, the label block of the
// non-empty label pairs, and the separating space.
func appendName(buf []byte, name, suffix, l1, l2 string) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if l1 != "" || l2 != "" {
		buf = append(buf, '{')
		buf = append(buf, l1...)
		if l1 != "" && l2 != "" {
			buf = append(buf, ',')
		}
		buf = append(buf, l2...)
		buf = append(buf, '}')
	}
	return append(buf, ' ')
}

// WritePrometheus renders the schema in the text exposition format v0.0.4:
// families sorted by name, series sorted by label block, histograms as
// cumulative le-bound buckets plus _sum and _count. NaN and infinite gauges
// and empty histograms are skipped, and a family without a series is left
// out.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	cells := append([]*Cell(nil), r.sorted...)
	schemes := append([]*schemeHists(nil), r.schemes...)
	r.mu.Unlock()

	var buf []byte
	var scratch []uint64
	for _, m := range schema {
		typ := "gauge"
		switch m.src {
		case cellCounter, cellEvents:
			typ = "counter"
		case fleetHist, schemeHist:
			typ = "histogram"
		}
		buf = append(buf[:0], "# HELP "...)
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = append(buf, m.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, m.name...)
		buf = append(buf, ' ')
		buf = append(buf, typ...)
		buf = append(buf, '\n')
		header := len(buf)
		switch m.src {
		case cellCounter:
			for _, c := range cells {
				buf = appendName(buf, m.name, "", c.label, "")
				buf = strconv.AppendUint(buf, c.totals[m.slot].Load(), 10)
				buf = append(buf, '\n')
			}
		case cellGauge:
			for _, c := range cells {
				v := c.gauges[m.slot].value()
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue // no observation yet / not applicable
				}
				buf = appendName(buf, m.name, "", c.label, "")
				buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
				buf = append(buf, '\n')
			}
		case cellEvents:
			for _, c := range cells {
				for _, k := range kindLabels {
					buf = appendName(buf, m.name, "", c.label, k.label)
					buf = strconv.AppendUint(buf, c.events[k.slot].Load(), 10)
					buf = append(buf, '\n')
				}
			}
		case fleetHist:
			buf, scratch = r.fleet[m.slot].appendTo(buf, scratch, m.name, "")
		case schemeHist:
			for _, s := range schemes {
				buf, scratch = s.h[m.slot].appendTo(buf, scratch, m.name, s.label)
			}
		}
		if len(buf) == header {
			continue // no series: emit nothing, not a bare header
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// DistJSON is one WA distribution in the /api/v1/fleet document. Quantile
// fields are omitted (never null) when the distribution is empty.
type DistJSON struct {
	Count uint64   `json:"count"`
	P50   *float64 `json:"p50,omitempty"`
	P90   *float64 `json:"p90,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// FleetSchemeJSON is one scheme's WA distributions in /api/v1/fleet:
// per-sample interval WA across all of the scheme's cells, and end-of-run
// WA across its completed cells.
type FleetSchemeJSON struct {
	Scheme     string   `json:"scheme"`
	IntervalWA DistJSON `json:"interval_wa"`
	FinalWA    DistJSON `json:"final_wa"`
}

// FleetWA returns the per-scheme WA distributions (sorted by scheme name)
// plus the fleet-wide interval-WA distribution — the data behind
// /api/v1/fleet's percentiles.
func (r *Registry) FleetWA() (all DistJSON, schemes []FleetSchemeJSON) {
	all = r.fleet[hSampleIntervalWA].dist()
	r.mu.Lock()
	cells := append([]*Cell(nil), r.order...)
	r.mu.Unlock()
	schemes = []FleetSchemeJSON{}
	seen := make(map[string]bool)
	for _, c := range cells {
		s := c.meta.Scheme
		if seen[s] {
			continue
		}
		seen[s] = true
		schemes = append(schemes, FleetSchemeJSON{
			Scheme:     s,
			IntervalWA: c.scheme.h[hIntervalWA].dist(),
			FinalWA:    c.scheme.h[hFinalWA].dist(),
		})
	}
	sort.Slice(schemes, func(i, j int) bool { return schemes[i].Scheme < schemes[j].Scheme })
	return all, schemes
}
