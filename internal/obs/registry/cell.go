package registry

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phftl/phftl/internal/obs"
)

// State is a cell's lifecycle phase, published by internal/runner (or a
// single-cell harness) and served by the control-plane endpoints.
type State int32

// The lifecycle. Queued cells are registered but not yet picked up by a
// worker; Done/Failed/Cancelled are terminal. Cancelled marks a cell stopped
// by an explicit control-plane cancel (fleet service), never by a failure.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

// NumStates is the number of lifecycle states.
const NumStates = int(StateCancelled) + 1

// String returns the snake-free lowercase name used in labels and JSON.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is an end state (done, failed or
// cancelled).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// CellMeta is the immutable identity of a cell.
type CellMeta struct {
	// Trace and Scheme echo the runner.Cell identity.
	Trace, Scheme string
	// TargetOps is the expected user-page-write total of the cell's replay
	// (0 = unknown). It feeds ETA estimation and the cells endpoint.
	TargetOps uint64
}

// FTLTotals carries the FTL's cumulative write counters into
// Cell.PublishSample (the sampler closure reads them off ftl.Stats).
type FTLTotals struct {
	UserWrites, GCWrites, MetaWrites uint64
}

// Indices of Cell.totals: cumulative counts published by the sampler, which
// only ever move forwards.
const (
	tOps = iota
	tUserWrites
	tGCWrites
	tMetaWrites
	numTotals
)

// Indices of Cell.gauges.
const (
	gIntervalWA = iota
	gCumWA
	gThreshold
	gCacheHit
	gWearSkew
	gWearCoV
	gFreeSB
	gState
	numGauges
)

// gauge is an atomic float64. NaN marks "no observation yet / not
// applicable" (the same convention as obs.Sample); the exposition and the
// JSON documents skip NaN gauges instead of serving a fake zero.
type gauge struct{ bits atomic.Uint64 }

func (g *gauge) set(v float64)  { g.bits.Store(math.Float64bits(v)) }
func (g *gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// Cell is one (trace, scheme) replay's live metric set: plain atomic fields
// set up by OpenCell, so the per-event and per-sample producers run
// allocation-free on pure atomics (plus one uncontended mutex for the event
// ring and histograms). Cell implements obs.Recorder; internal/sim tees the
// instrumented packages' recorder into it.
type Cell struct {
	name  string
	label string // cell="<escaped name>", the exposition label pair
	meta  CellMeta
	reg   *Registry

	state   atomic.Int32
	startNS atomic.Int64 // unix ns of the queued→running transition
	doneNS  atomic.Int64 // unix ns of the terminal transition

	events [obs.NumKinds]atomic.Uint64
	totals [numTotals]atomic.Uint64
	gauges [numGauges]gauge

	scheme *schemeHists // shared by every cell of the scheme
}

// OpenCell registers (or returns the existing) cell under name, in state
// queued. Idempotent: the first caller's meta wins, so the runner can
// pre-register the fleet and the harness can re-open for the handle.
func (r *Registry) OpenCell(name string, meta CellMeta) *Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cells[name]; ok {
		return c
	}
	c := &Cell{name: name, label: labelPair("cell", name), meta: meta, reg: r, scheme: r.schemeFor(meta.Scheme)}
	for i := range c.gauges {
		c.gauges[i].set(math.NaN())
	}
	c.gauges[gState].set(float64(StateQueued))
	r.cells[name] = c
	r.order = append(r.order, c)
	i, _ := slices.BinarySearchFunc(r.sorted, c.label, func(c *Cell, l string) int { return strings.Compare(c.label, l) })
	r.sorted = slices.Insert(r.sorted, i, c)
	return c
}

// Cell returns the cell registered under name, or nil.
func (r *Registry) Cell(name string) *Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cells[name]
}

// State returns the current lifecycle state.
func (c *Cell) State() State { return State(c.state.Load()) }

// SetState publishes a lifecycle transition. The first transition to
// running stamps the start time; a terminal transition stamps the done
// time (both feed ops/sec and ETA).
func (c *Cell) SetState(s State) {
	c.state.Store(int32(s))
	c.gauges[gState].set(float64(s))
	now := time.Now().UnixNano()
	switch s {
	case StateRunning:
		c.startNS.CompareAndSwap(0, now)
	case StateDone, StateFailed, StateCancelled:
		c.doneNS.CompareAndSwap(0, now)
	}
}

// Record implements obs.Recorder: exact per-kind counting plus a store into
// the registry's drain ring of the events obs.Keep retains. Allocation-free
// once the ring has filled.
func (c *Cell) Record(ev obs.Event) {
	k := int(ev.Kind)
	if k >= obs.NumKinds {
		k = 0
	}
	seen := c.events[k].Add(1)
	if ev.Kind == obs.KindGCStart {
		c.reg.fleet[hGCValidRatio].Observe(ev.F0)
	}
	if obs.Keep(ev.Kind, seen) {
		c.reg.ring.store(c.name, ev)
	}
}

// raise publishes an externally maintained cumulative total (e.g. the FTL's
// user-page-write count). A stale store from a lagging writer is dropped
// rather than winding the total backwards.
func raise(t *atomic.Uint64, v uint64) {
	for {
		cur := t.Load()
		if v <= cur || t.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PublishSample folds one sampler snapshot into the cell's gauges and
// cumulative totals. NaN gauge fields keep their "not applicable" meaning
// (the exposition and the JSON documents skip them). Allocation-free.
func (c *Cell) PublishSample(s obs.Sample, t FTLTotals) {
	raise(&c.totals[tOps], s.Clock)
	raise(&c.totals[tUserWrites], t.UserWrites)
	raise(&c.totals[tGCWrites], t.GCWrites)
	raise(&c.totals[tMetaWrites], t.MetaWrites)
	c.gauges[gIntervalWA].set(s.IntervalWA)
	c.gauges[gCumWA].set(s.CumWA)
	c.gauges[gFreeSB].set(float64(s.FreeSB))
	c.gauges[gCacheHit].set(s.CacheHitRatio)
	c.gauges[gWearSkew].set(s.WearSkew)
	c.gauges[gWearCoV].set(s.WearCoV)
	if s.Threshold > 0 {
		c.gauges[gThreshold].set(s.Threshold)
	}
	c.reg.fleet[hSampleIntervalWA].Observe(s.IntervalWA)
	c.scheme.h[hIntervalWA].Observe(s.IntervalWA)
}

// PublishFinalWA records a completed run's end-of-run write amplification
// into the per-scheme fleet distribution (served by /api/v1/fleet). Call once
// per successful cell completion; NaN is dropped like every histogram input.
func (c *Cell) PublishFinalWA(wa float64) {
	c.scheme.h[hFinalWA].Observe(wa)
}

// elapsedSec returns the running (or final) wall duration in seconds, 0
// before the cell started.
func (c *Cell) elapsedSec(now time.Time) float64 {
	start := c.startNS.Load()
	if start == 0 {
		return 0
	}
	end := c.doneNS.Load()
	if end == 0 {
		end = now.UnixNano()
	}
	return float64(end-start) / 1e9
}

// CellJSON is one element of the /api/v1/cells document. Gauge fields are
// pointers: a nil field means the gauge is not applicable (or not yet
// observed), mirroring the NaN convention of the JSONL sink.
type CellJSON struct {
	Cell      string  `json:"cell"`
	Trace     string  `json:"trace"`
	Scheme    string  `json:"scheme"`
	State     string  `json:"state"`
	Ops       uint64  `json:"ops"`
	TargetOps uint64  `json:"target_ops,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec"`

	UserWrites uint64 `json:"user_writes"`
	GCWrites   uint64 `json:"gc_writes"`
	MetaWrites uint64 `json:"meta_writes"`
	GCPasses   uint64 `json:"gc_passes"`

	IntervalWA *float64 `json:"interval_wa,omitempty"`
	CumWA      *float64 `json:"cum_wa,omitempty"`
	Threshold  *float64 `json:"threshold,omitempty"`
	CacheHit   *float64 `json:"cache_hit,omitempty"`
	WearSkew   *float64 `json:"wear_skew,omitempty"`
	WearCoV    *float64 `json:"wear_cov,omitempty"`
	FreeSB     *float64 `json:"free_sb,omitempty"`

	Events map[string]uint64 `json:"events,omitempty"` // kind name -> exact count, zero kinds omitted
}

// CellsJSON is the /api/v1/cells document.
type CellsJSON struct {
	Cells []CellJSON `json:"cells"`
}

// Snapshot returns every cell's current state in registration order.
func (r *Registry) Snapshot() CellsJSON {
	r.mu.Lock()
	cells := append([]*Cell(nil), r.order...)
	r.mu.Unlock()
	now := time.Now()
	doc := CellsJSON{Cells: make([]CellJSON, 0, len(cells))}
	for _, c := range cells {
		s := CellJSON{
			Cell:       c.name,
			Trace:      c.meta.Trace,
			Scheme:     c.meta.Scheme,
			State:      c.State().String(),
			Ops:        c.totals[tOps].Load(),
			TargetOps:  c.meta.TargetOps,
			UserWrites: c.totals[tUserWrites].Load(),
			GCWrites:   c.totals[tGCWrites].Load(),
			MetaWrites: c.totals[tMetaWrites].Load(),
			GCPasses:   c.events[obs.KindGCEnd].Load(),
			IntervalWA: opt(c.gauges[gIntervalWA].value()),
			CumWA:      opt(c.gauges[gCumWA].value()),
			Threshold:  opt(c.gauges[gThreshold].value()),
			CacheHit:   opt(c.gauges[gCacheHit].value()),
			WearSkew:   opt(c.gauges[gWearSkew].value()),
			WearCoV:    opt(c.gauges[gWearCoV].value()),
			FreeSB:     opt(c.gauges[gFreeSB].value()),
			Events:     make(map[string]uint64),
		}
		if sec := c.elapsedSec(now); sec > 0 {
			s.OpsPerSec = float64(s.Ops) / sec
		}
		for k := 1; k < obs.NumKinds; k++ {
			if n := c.events[k].Load(); n > 0 {
				s.Events[obs.Kind(k).String()] = n
			}
		}
		doc.Cells = append(doc.Cells, s)
	}
	return doc
}

// Totals aggregates the fleet for the status endpoint and the runner's
// progress line.
type Totals struct {
	Ops       uint64
	TargetOps uint64 // sum over cells with a known target
	Cells     [NumStates]int
	Events    uint64 // exact event total across cells and kinds
}

// Totals returns the fleet aggregate.
func (r *Registry) Totals() Totals {
	r.mu.Lock()
	cells := append([]*Cell(nil), r.order...)
	r.mu.Unlock()
	var t Totals
	for _, c := range cells {
		t.Ops += c.totals[tOps].Load()
		t.TargetOps += c.meta.TargetOps
		if s := int(c.State()); s >= 0 && s < NumStates {
			t.Cells[s]++
		}
		for k := range c.events {
			t.Events += c.events[k].Load()
		}
	}
	return t
}

// SeqEvent is one drained event: its global ring sequence number (the
// ?since= cursor), the cell it came from, and the event itself.
type SeqEvent struct {
	Seq  uint64
	Cell string
	Ev   obs.Event
}

// drainRing is the bounded global event store behind /api/v1/events: the
// newest stored events under one lock. A full ring overwrites its oldest
// event, so producers never block and a slow scraper only loses history,
// never progress. Sequence numbers start at 1 and count stored events
// (obs.Keep thins the hot kinds before the ring).
type drainRing struct {
	mu sync.Mutex
	obs.Ring[SeqEvent]
}

func (d *drainRing) init(capacity int) { d.Ring = obs.NewRing[SeqEvent](capacity) }

func (d *drainRing) store(cell string, ev obs.Event) {
	d.mu.Lock()
	d.Push(SeqEvent{Seq: d.Newest() + 1, Cell: cell, Ev: ev})
	d.mu.Unlock()
}

// EventsSince drains up to limit ring events with sequence number > since,
// oldest first, optionally filtered to one kind (kind 0 = all). The second
// return is the safe resume cursor: the sequence number of the last slot the
// scan *covered* (delivered, or skipped by the kind filter). Polling again
// with since set to this value delivers every subsequent event exactly once
// — in particular, when limit truncates the result the cursor points at the
// last returned event, never at the ring's newest sequence, so undelivered
// events between the two are not skipped. When nothing new is available the
// cursor is returned unchanged (or advanced to the oldest survivor when the
// gap was overwritten).
func (r *Registry) EventsSince(since uint64, kind obs.Kind, limit int) ([]SeqEvent, uint64) {
	if limit <= 0 {
		limit = 1000
	}
	d := &r.ring
	d.mu.Lock()
	defer d.mu.Unlock()
	if since >= d.Newest() {
		return nil, since
	}
	// The scan covers at least one slot; an overwritten gap resumes at the
	// oldest survivor.
	var out []SeqEvent
	var cursor uint64
	for seq := max(since+1, d.Oldest()); seq <= d.Newest() && len(out) < limit; seq++ {
		cursor = seq
		if se := d.At(seq); kind == 0 || se.Ev.Kind == kind {
			out = append(out, se)
		}
	}
	return out, cursor
}

// EventsDropped returns how many ring slots have been overwritten before
// being guaranteed drained (a scrape-rate, not correctness, signal: exact
// per-kind counters never drop).
func (r *Registry) EventsDropped() uint64 {
	r.ring.mu.Lock()
	defer r.ring.mu.Unlock()
	return r.ring.Dropped()
}

// UptimeSeconds returns seconds since the registry was created.
func (r *Registry) UptimeSeconds() float64 {
	return time.Since(r.start).Seconds()
}

var _ obs.Recorder = (*Cell)(nil)
