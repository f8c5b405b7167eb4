package registry

import (
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

// Cell is one (trace, scheme) replay's live metric set. All handles are
// resolved at OpenCell time, so the per-event and per-sample producers run
// allocation-free on pure atomics (plus one uncontended mutex for the event
// ring and histograms). Cell implements obs.Recorder; internal/sim tees the
// instrumented packages' recorder into it.
type Cell struct {
	name string
	meta CellMeta
	reg  *Registry

	state   atomic.Int32
	startNS atomic.Int64 // unix ns of the queued→running transition
	doneNS  atomic.Int64 // unix ns of the terminal transition

	events [obs.NumKinds]*Counter

	ops, userWrites, gcWrites, metaWrites *Counter

	intervalWA, cumWA, threshold, cacheHit *Gauge
	wearSkew, wearCoV, freeSB, stateG      *Gauge

	// Per-scheme cross-cell WA distributions (shared handles: every cell of
	// one scheme observes into the same pair). schemeIntervalWA is fed per
	// sample, schemeFinalWA once per completed run (PublishFinalWA); together
	// they back the /api/v1/fleet percentiles.
	schemeIntervalWA, schemeFinalWA *Histogram
}

// OpenCell registers (or returns the existing) cell under name, in state
// queued. Idempotent: the first caller's meta wins, so the runner can
// pre-register the fleet and the harness can re-open for the handle.
func (r *Registry) OpenCell(name string, meta CellMeta) *Cell {
	r.mu.Lock()
	if c, ok := r.cells[name]; ok {
		r.mu.Unlock()
		return c
	}
	r.mu.Unlock() // metric registration below re-enters r.mu

	c := &Cell{name: name, meta: meta, reg: r}
	cl := Label{"cell", name}
	for k := range c.events {
		kind := "unknown"
		if k > 0 {
			kind = obs.Kind(k).String()
		}
		c.events[k] = r.Counter("phftl_cell_events_total",
			"Trace events recorded per cell and kind (exact, including ring-thinned events).",
			cl, Label{"kind", kind})
	}
	c.ops = r.Counter("phftl_cell_ops_total",
		"User page writes replayed into the cell (the FTL virtual clock).", cl)
	c.userWrites = r.Counter("phftl_cell_user_writes_total",
		"User page programs issued by the cell's FTL.", cl)
	c.gcWrites = r.Counter("phftl_cell_gc_writes_total",
		"GC page migrations issued by the cell's FTL.", cl)
	c.metaWrites = r.Counter("phftl_cell_meta_writes_total",
		"Metadata page programs issued by the cell's FTL (PHFTL only).", cl)
	c.intervalWA = r.Gauge("phftl_cell_interval_wa",
		"Write amplification over the last sampling interval.", cl)
	c.cumWA = r.Gauge("phftl_cell_cum_wa",
		"Cumulative write amplification since the start of the cell.", cl)
	c.threshold = r.Gauge("phftl_cell_threshold",
		"PHFTL classification threshold in page-writes (absent for baselines).", cl)
	c.cacheHit = r.Gauge("phftl_cell_cache_hit_ratio",
		"Cumulative metadata-cache hit ratio (absent for schemes without a metadata store).", cl)
	c.wearSkew = r.Gauge("phftl_cell_wear_skew",
		"Max/mean per-block erase-count ratio (1.0 = perfectly even).", cl)
	c.wearCoV = r.Gauge("phftl_cell_wear_cov",
		"Coefficient of variation of per-block erase counts.", cl)
	c.freeSB = r.Gauge("phftl_cell_free_superblocks",
		"Current free-superblock count.", cl)
	c.stateG = r.Gauge("phftl_cell_state",
		"Cell lifecycle state: 0 queued, 1 running, 2 done, 3 failed, 4 cancelled.", cl)
	c.stateG.Set(float64(StateQueued))
	sl := Label{"scheme", meta.Scheme}
	c.schemeIntervalWA = r.Histogram("phftl_scheme_interval_wa",
		"Per-sample interval write amplification across cells, by scheme.",
		60, 0.05, sl)
	c.schemeFinalWA = r.Histogram("phftl_scheme_final_wa",
		"End-of-run write amplification of completed cells, by scheme.",
		60, 0.05, sl)

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.cells[name]; ok {
		return existing // lost a registration race; metrics are shared anyway
	}
	r.cells[name] = c
	r.order = append(r.order, c)
	return c
}

// Cell returns the cell registered under name, or nil.
func (r *Registry) Cell(name string) *Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cells[name]
}

// Name returns the cell's registered name (the run tag).
func (c *Cell) Name() string { return c.name }

// Meta returns the cell's identity.
func (c *Cell) Meta() CellMeta { return c.meta }

// State returns the current lifecycle state.
func (c *Cell) State() State { return State(c.state.Load()) }

// SetState publishes a lifecycle transition. The first transition to
// running stamps the start time; a terminal transition stamps the done
// time (both feed ops/sec and ETA).
func (c *Cell) SetState(s State) {
	c.state.Store(int32(s))
	c.stateG.Set(float64(s))
	now := time.Now().UnixNano()
	switch s {
	case StateQueued:
		// A re-queue (fleet restart policy) reopens the lifecycle window.
		c.doneNS.Store(0)
	case StateRunning:
		c.startNS.CompareAndSwap(0, now)
	case StateDone, StateFailed, StateCancelled:
		c.doneNS.CompareAndSwap(0, now)
	}
}

// Record implements obs.Recorder: exact per-kind counting plus a store into
// the registry's drain ring, thinned for the hot kinds (emitted per metadata
// retrieval, millions per replay) at obs.HotSampleEvery. Allocation-free.
func (c *Cell) Record(ev obs.Event) {
	k := int(ev.Kind)
	if k >= obs.NumKinds {
		k = 0
	}
	seen := c.events[k].Inc()
	if ev.Kind == obs.KindGCStart {
		c.reg.gcValidRatio.Observe(ev.F0)
	}
	if every := obs.HotSampleEvery(ev.Kind); every > 1 && (seen-1)%every != 0 {
		return
	}
	c.reg.ring.store(c.name, ev)
}

// PublishSample folds one sampler snapshot into the cell's gauges and
// cumulative counters. NaN gauge fields keep their "not applicable"
// meaning (exposition and snapshots skip them). Allocation-free.
func (c *Cell) PublishSample(s obs.Sample, t FTLTotals) {
	c.ops.SetTotal(s.Clock)
	c.userWrites.SetTotal(t.UserWrites)
	c.gcWrites.SetTotal(t.GCWrites)
	c.metaWrites.SetTotal(t.MetaWrites)
	c.intervalWA.Set(s.IntervalWA)
	c.cumWA.Set(s.CumWA)
	c.freeSB.Set(float64(s.FreeSB))
	c.cacheHit.Set(s.CacheHitRatio)
	c.wearSkew.Set(s.WearSkew)
	c.wearCoV.Set(s.WearCoV)
	if s.Threshold > 0 {
		c.threshold.Set(s.Threshold)
	}
	c.reg.sampleIntervalWA.Observe(s.IntervalWA)
	c.schemeIntervalWA.Observe(s.IntervalWA)
}

// PublishFinalWA records a completed run's end-of-run write amplification
// into the per-scheme fleet distribution (served by /api/v1/fleet). Call once
// per successful cell completion; NaN is dropped like every histogram input.
func (c *Cell) PublishFinalWA(wa float64) {
	c.schemeFinalWA.Observe(wa)
}

// Ops returns the cell's current replayed-op total.
func (c *Cell) Ops() uint64 { return c.ops.Value() }

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

// OpsPerSec returns the cell's average replay rate over its lifetime so
// far, 0 before it started.
func (c *Cell) OpsPerSec() float64 {
	sec := c.elapsedSec(time.Now())
	if sec <= 0 {
		return 0
	}
	return float64(c.Ops()) / sec
}

// CellSnapshot is one cell's point-in-time view, the source of the
// /api/v1/cells JSON. Gauge fields are NaN when not applicable / not yet
// observed.
type CellSnapshot struct {
	Name      string
	Trace     string
	Scheme    string
	State     State
	TargetOps uint64
	Ops       uint64
	OpsPerSec float64

	UserWrites, GCWrites, MetaWrites uint64
	GCPasses                         uint64

	IntervalWA, CumWA, Threshold, CacheHit float64
	WearSkew, WearCoV, FreeSB              float64

	Events map[string]uint64 // kind name -> exact count, zero kinds omitted
}

// Snapshot returns every cell's current state in registration order.
func (r *Registry) Snapshot() []CellSnapshot {
	r.mu.Lock()
	cells := append([]*Cell(nil), r.order...)
	r.mu.Unlock()
	now := time.Now()
	out := make([]CellSnapshot, 0, len(cells))
	for _, c := range cells {
		s := CellSnapshot{
			Name:       c.name,
			Trace:      c.meta.Trace,
			Scheme:     c.meta.Scheme,
			State:      c.State(),
			TargetOps:  c.meta.TargetOps,
			Ops:        c.Ops(),
			UserWrites: c.userWrites.Value(),
			GCWrites:   c.gcWrites.Value(),
			MetaWrites: c.metaWrites.Value(),
			GCPasses:   c.events[obs.KindGCEnd].Value(),
			IntervalWA: c.intervalWA.Value(),
			CumWA:      c.cumWA.Value(),
			Threshold:  c.threshold.Value(),
			CacheHit:   c.cacheHit.Value(),
			WearSkew:   c.wearSkew.Value(),
			WearCoV:    c.wearCoV.Value(),
			FreeSB:     c.freeSB.Value(),
			Events:     make(map[string]uint64),
		}
		if sec := c.elapsedSec(now); sec > 0 {
			s.OpsPerSec = float64(s.Ops) / sec
		}
		for k := 1; k < obs.NumKinds; k++ {
			if n := c.events[k].Value(); n > 0 {
				s.Events[obs.Kind(k).String()] = n
			}
		}
		out = append(out, s)
	}
	return out
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
		t.Ops += c.Ops()
		t.TargetOps += c.meta.TargetOps
		if s := int(c.State()); s >= 0 && s < NumStates {
			t.Cells[s]++
		}
		for k := range c.events {
			t.Events += c.events[k].Value()
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

// eventRing is the bounded global event store behind /api/v1/events.
// Slots are preallocated; a full ring overwrites its oldest slot, so
// producers never block and a slow scraper only loses history, never
// progress. Sequence numbers start at 1 and are assigned per *stored*
// event (hot-kind thinning happens before the ring).
type eventRing struct {
	mu      sync.Mutex
	buf     []SeqEvent
	mask    uint64
	stored  uint64 // == last assigned seq
	dropped uint64
}

func (er *eventRing) init(capacity int) {
	n := 1
	for n < capacity {
		n <<= 1
	}
	er.buf = make([]SeqEvent, n)
	er.mask = uint64(n - 1)
}

func (er *eventRing) store(cell string, ev obs.Event) {
	er.mu.Lock()
	seq := er.stored + 1
	er.stored = seq
	if seq > uint64(len(er.buf)) {
		er.dropped++
	}
	er.buf[(seq-1)&er.mask] = SeqEvent{Seq: seq, Cell: cell, Ev: ev}
	er.mu.Unlock()
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
	er := &r.ring
	er.mu.Lock()
	defer er.mu.Unlock()
	newest := er.stored
	oldest := uint64(1)
	if newest > uint64(len(er.buf)) {
		oldest = newest - uint64(len(er.buf)) + 1
	}
	from := since + 1
	if from < oldest {
		from = oldest // the gap was overwritten; resume at the oldest survivor
	}
	cursor := from - 1
	var out []SeqEvent
	for seq := from; seq <= newest; seq++ {
		if len(out) == limit {
			break // truncated: cursor stays at the last scanned slot
		}
		se := er.buf[(seq-1)&er.mask]
		cursor = seq
		if kind != 0 && se.Ev.Kind != kind {
			continue
		}
		out = append(out, se)
	}
	return out, cursor
}

// EventsDropped returns how many ring slots have been overwritten before
// being guaranteed drained (a scrape-rate, not correctness, signal: exact
// per-kind counters never drop).
func (r *Registry) EventsDropped() uint64 {
	r.ring.mu.Lock()
	defer r.ring.mu.Unlock()
	return r.ring.dropped
}

// UptimeSeconds returns seconds since the registry was created.
func (r *Registry) UptimeSeconds() float64 {
	return time.Since(r.start).Seconds()
}

var _ obs.Recorder = (*Cell)(nil)
