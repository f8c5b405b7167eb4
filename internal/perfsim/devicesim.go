package perfsim

import (
	"fmt"
	"math"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
)

type pendingOp struct {
	kind nand.OpKind
	die  int
}

// Machine couples a functional FTL instance to the timing model: every flash
// operation the FTL performs is charged to its die's queue, predictions are
// charged to the dedicated classifier core, and request latencies emerge
// from the resulting contention (GC bursts block host operations on the same
// dies — the mechanism behind Figure 7's tail latencies).
type Machine struct {
	In     *sim.Instance
	timing Timing
	geo    nand.Geometry

	dieFree  []int64 // next instant each die is idle
	dieBusy  []int64 // cumulative service charged per die
	coreFree int64   // classifier core (PHFTL only)

	pending []pendingOp

	// rec/sampler, when non-nil (installed by Observe), capture
	// die-contention stall events and per-request gauge samples.
	rec         obs.Recorder
	sampler     *obs.Sampler
	lastArrival int64

	// intervalLats accumulates write-request latencies (ms) since the last
	// sample; the Observation's Latency hook drains it at each snapshot.
	intervalLats []float64

	// lpns is the page buffer issue refills for each request.
	lpns []nand.LPN
}

// NewMachine builds a scheme over a hooked device. For SchemePHFTL the
// classifier core is modeled; baselines skip prediction entirely.
func NewMachine(scheme sim.Scheme, geo nand.Geometry, t Timing) (*Machine, error) {
	dev, err := nand.NewDevice(geo)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		timing:  t,
		geo:     geo,
		dieFree: make([]int64, geo.Dies),
		dieBusy: make([]int64, geo.Dies),
	}
	dev.SetOpHook(func(kind nand.OpKind, p nand.PPN) {
		m.pending = append(m.pending, pendingOp{kind: kind, die: geo.DieOf(p)})
	})
	in, err := sim.Build(scheme, geo, &sim.Spec{Device: dev})
	if err != nil {
		return nil, err
	}
	m.In = in
	return m, nil
}

// Observe wires the machine into an instance observation (created with
// sim.Observe on m.In): host writes delayed by busy dies emit
// obs.KindWriteStall events, each request ticks the sampler, and samples
// gain the busy-die count as their queue-depth gauge plus the interval's
// P50/P99 write-request latencies.
func (m *Machine) Observe(o *sim.Observation) {
	m.rec = o.Rec
	m.sampler = o.Sampler
	o.QueueDepth = func() float64 {
		busy := 0
		for _, f := range m.dieFree {
			if f > m.lastArrival {
				busy++
			}
		}
		return float64(busy)
	}
	o.Latency = func() (p50, p99 float64) {
		if len(m.intervalLats) == 0 {
			return math.NaN(), math.NaN()
		}
		p := metrics.Percentiles(m.intervalLats, 50, 99)
		m.intervalLats = m.intervalLats[:0]
		return p[0], p[1]
	}
}

func (m *Machine) service(kind nand.OpKind) int64 {
	switch kind {
	case nand.OpRead:
		return m.timing.ReadNS
	case nand.OpProgram:
		return m.timing.ProgramNS
	default:
		return m.timing.EraseNS
	}
}

// WriteRequest runs one multi-page write arriving at arrivalNS through the
// FTL and the timing model, returning the request latency in ns. The
// command completes when every host data page has been programmed (the GC
// and metadata work it triggered keeps the dies busy afterwards, delaying
// future requests instead).
func (m *Machine) WriteRequest(arrivalNS int64, lpns []nand.LPN, seq bool) (int64, error) {
	m.lastArrival = arrivalNS
	start := arrivalNS + m.timing.CmdNS
	dmaDone := start + int64(float64(len(lpns)*m.geo.PageSize)/m.timing.DMABytesPerNS)
	hostFinish := dmaDone
	for _, lpn := range lpns {
		// Off-path prediction: runs on the classifier core as soon as the
		// command arrives; the flash flush of this page waits for its
		// prediction result (§III-C, decoupled completion).
		var predDone int64
		if m.In.PHFTL != nil {
			s := maxI64(start, m.coreFree)
			m.coreFree = s + m.timing.PredictNS
			predDone = m.coreFree
		}
		m.pending = m.pending[:0]
		if err := m.In.FTL.Write(ftl.UserWrite{LPN: lpn, ReqPages: len(lpns), Seq: seq}); err != nil {
			return 0, err
		}
		hostProgramSeen := false
		for _, op := range m.pending {
			svc := m.service(op.kind)
			s := maxI64(dmaDone, m.dieFree[op.die])
			if !hostProgramSeen && op.kind == nand.OpProgram {
				// The host page had to wait for its die: a GC or metadata
				// burst is blocking the critical path (Figure 7's tails).
				if wait := m.dieFree[op.die] - dmaDone; wait > 0 && m.rec != nil {
					busy := 0
					for _, f := range m.dieFree {
						if f > dmaDone {
							busy++
						}
					}
					m.rec.Record(obs.Event{
						Kind: obs.KindWriteStall, Clock: m.In.FTL.Clock(),
						SB: -1, Stream: -1, GCClass: -1,
						A: int64(busy), B: 1, C: wait,
					})
				}
				// The first program of this FTL call is the host page.
				if predDone > s {
					s = predDone
				}
			}
			f := s + svc
			m.dieFree[op.die] = f
			m.dieBusy[op.die] += svc
			if !hostProgramSeen && op.kind == nand.OpProgram {
				hostProgramSeen = true
				if f > hostFinish {
					hostFinish = f
				}
			}
		}
	}
	lat := hostFinish + m.timing.CompletionNS - arrivalNS
	if m.sampler != nil {
		// Record before Tick so a sample due at this clock includes this
		// request in its interval.
		m.intervalLats = append(m.intervalLats, float64(lat)/1e6)
		m.sampler.Tick(m.In.FTL.Clock())
	}
	return lat, nil
}

// ReadRequest runs one multi-page read arriving at arrivalNS.
func (m *Machine) ReadRequest(arrivalNS int64, lpns []nand.LPN) (int64, error) {
	start := arrivalNS + m.timing.CmdNS
	finish := start
	for _, lpn := range lpns {
		m.pending = m.pending[:0]
		if err := m.In.FTL.Read(lpn, len(lpns)); err != nil && err != ftl.ErrUnmapped {
			return 0, err
		}
		for _, op := range m.pending {
			svc := m.service(op.kind)
			s := maxI64(start, m.dieFree[op.die])
			f := s + svc
			m.dieFree[op.die] = f
			m.dieBusy[op.die] += svc
			if f > finish {
				finish = f
			}
		}
	}
	dma := int64(float64(len(lpns)*m.geo.PageSize) / m.timing.DMABytesPerNS)
	return finish + dma + m.timing.CompletionNS - arrivalNS, nil
}

// TrimRequest runs one discard of the given pages. Each page is unmapped
// through FTL.Trim, which moves no data, so the command costs only its
// submission and completion.
func (m *Machine) TrimRequest(lpns []nand.LPN) (int64, error) {
	for _, lpn := range lpns {
		if err := m.In.FTL.Trim(lpn); err != nil {
			return 0, err
		}
	}
	return m.timing.CmdNS + m.timing.CompletionNS, nil
}

// issue expands one record into its pages through e — the replay's one
// trace.Expander, which detects sequential requests per kind and wraps LPNs
// to the drive — and runs it as a host command arriving at arrivalNS. It
// returns the request's latency and page count; a zero-size record is no
// command and returns 0 pages.
func (m *Machine) issue(e *trace.Expander, r trace.Record, arrivalNS int64) (lat int64, pages int, err error) {
	m.lpns = m.lpns[:0]
	var seq bool
	e.Expand(r, func(op trace.PageOp) error { // nolint: errcheck — never errs
		m.lpns = append(m.lpns, nand.LPN(op.LPN))
		seq = op.Seq
		return nil
	})
	switch {
	case len(m.lpns) == 0:
		return 0, 0, nil
	case r.Op == trace.OpWrite:
		lat, err = m.WriteRequest(arrivalNS, m.lpns, seq)
	case r.Op == trace.OpTrim:
		lat, err = m.TrimRequest(m.lpns)
	default:
		lat, err = m.ReadRequest(arrivalNS, m.lpns)
	}
	return lat, len(m.lpns), err
}

// Elapsed returns the device-time frontier (the busiest die's clock).
func (m *Machine) Elapsed() int64 {
	var e int64
	for _, v := range m.dieFree {
		if v > e {
			e = v
		}
	}
	return e
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BandwidthPoint is one phase-1 sample: average write bandwidth during one
// drive write.
type BandwidthPoint struct {
	DriveWrite int
	MBPerSec   float64
}

// RunPhase1 stress-loads the records through the machine with a closed-loop
// worker pool (the paper uses 32 workers) and reports the write bandwidth of
// each drive-write segment (Figure 7, top).
func (m *Machine) RunPhase1(records []trace.Record, pageSize, workers int) ([]BandwidthPoint, error) {
	if workers < 1 {
		workers = 1
	}
	exported := m.In.FTL.ExportedPages()
	e := trace.NewExpander(pageSize, exported)
	workerFree := make([]int64, workers)
	var points []BandwidthPoint
	segPages := exported // one drive write per segment
	pagesInSeg := 0
	var segStart int64
	for _, r := range records {
		// Next free worker issues the request.
		wi := 0
		for i := 1; i < workers; i++ {
			if workerFree[i] < workerFree[wi] {
				wi = i
			}
		}
		arrival := workerFree[wi]
		lat, pages, err := m.issue(e, r, arrival)
		if err != nil {
			return nil, fmt.Errorf("perfsim: phase1: %w", err)
		}
		if pages == 0 {
			continue
		}
		workerFree[wi] = arrival + lat
		if r.Op == trace.OpWrite {
			pagesInSeg += pages
			if pagesInSeg >= segPages {
				end := m.Elapsed()
				sec := float64(end-segStart) / 1e9
				if sec > 0 {
					points = append(points, BandwidthPoint{
						DriveWrite: len(points) + 1,
						MBPerSec:   float64(pagesInSeg*pageSize) / (1 << 20) / sec,
					})
				}
				segStart = end
				pagesInSeg = 0
			}
		}
	}
	return points, nil
}

// LatencyStats is the phase-2 distribution (Figure 7, bottom), in
// milliseconds.
type LatencyStats struct {
	P50, P90, P99, P995, P999, Avg float64
}

// RunPhase2 replays the records open-loop at their recorded timestamps and
// returns the write-latency distribution.
func (m *Machine) RunPhase2(records []trace.Record, pageSize int) (LatencyStats, error) {
	e := trace.NewExpander(pageSize, m.In.FTL.ExportedPages())
	base := m.Elapsed() // continue after whatever load preceded phase 2
	var t0 uint64
	if len(records) > 0 {
		t0 = records[0].Time
	}
	var lats []float64
	for _, r := range records {
		lat, pages, err := m.issue(e, r, base+int64(r.Time-t0)*1000)
		if err != nil {
			return LatencyStats{}, fmt.Errorf("perfsim: phase2: %w", err)
		}
		if pages > 0 && r.Op == trace.OpWrite {
			lats = append(lats, float64(lat)/1e6)
		}
	}
	if len(lats) == 0 {
		return LatencyStats{}, fmt.Errorf("perfsim: phase2: no writes in trace")
	}
	p := metrics.Percentiles(lats, 50, 90, 99, 99.5, 99.9)
	return LatencyStats{
		P50: p[0], P90: p[1], P99: p[2], P995: p[3], P999: p[4],
		Avg: metrics.Mean(lats),
	}, nil
}
