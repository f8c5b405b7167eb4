// Package runner is the concurrency engine behind the benchmark harnesses:
// a bounded set of workers claims independent (trace, scheme) simulation
// cells in input order, and Run re-serializes their outputs in that order,
// so a parallel run produces byte-identical tables, CSVs and merged JSONL
// telemetry to a serial one. Each cell's events and samples are buffered by
// the cell itself; Run's calling goroutine writes them all, so it is the
// only writer of the shared sink. A cell that fails (error or panic) is
// reported with its trace/scheme tag and does not abort or corrupt the
// other cells.
package runner

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// Cell identifies one independent unit of work: a trace replayed under a
// scheme. Trace is an opaque tag to the engine (harnesses map it back to a
// workload profile); it only feeds run tagging and error reports.
type Cell struct {
	Trace  string
	Scheme sim.Scheme

	// OP, when positive, marks an overprovisioning-sweep cell built at that
	// spare ratio instead of the default 7% (phftl wa -op-sweep). It feeds
	// run tagging only; the harness maps it to GeometryForDriveOP and
	// sim.Spec.OP.
	OP float64

	// TargetOps is the cell's expected user-page-write total (0 = unknown).
	// It feeds the live registry's per-cell target and the progress line's
	// fleet ETA; the engine never enforces it.
	TargetOps uint64
}

// RunTag returns the "trace/scheme" tag used for telemetry lines and error
// reports, matching the serial harnesses' historical tagging. OP-sweep cells
// append "@op<ratio>" so each sweep point is distinguishable in telemetry.
func (c Cell) RunTag() string {
	tag := c.Trace + "/" + string(c.Scheme)
	if c.OP > 0 {
		tag += fmt.Sprintf("@op%g", c.OP)
	}
	return tag
}

// Output is what one cell produces. Events and Samples are the cell's own
// buffered telemetry (nil when the cell did not observe); Dropped counts
// events the cell's ring overwrote (its retained window is incomplete);
// Extra carries any harness-specific payload (e.g. phftl perf's phase
// results). Err is the cell's failure, if any, already tagged with the
// cell's trace/scheme.
type Output struct {
	Cell    Cell
	Result  sim.Result
	Events  []obs.Event
	Samples []obs.Sample
	Dropped uint64
	Extra   any
	Err     error
}

// WarnDropped prints one stderr-style warning line per cell whose bounded
// event rings wrapped, so lossy telemetry never goes unnoticed in harness
// output.
func WarnDropped(w io.Writer, outs []Output) {
	for _, out := range outs {
		if out.Dropped > 0 {
			fmt.Fprintf(w, "warning: %s: bounded event rings overwrote %d events (the 1/16-sampled meta-cache kinds; rare kinds are lossless, counters exact)\n",
				out.Cell.RunTag(), out.Dropped)
		}
	}
}

// Func executes one cell. It runs on a worker goroutine and must not share
// mutable state with other cells; everything it returns is handed to Run's
// caller. A panic is recovered and converted into the cell's error.
type Func func(Cell) (Output, error)

// Options configures a Run.
type Options struct {
	// Parallel is the number of workers. <= 0 selects runtime.GOMAXPROCS(0).
	Parallel int

	// Telemetry, when non-nil, receives every cell's events and samples as
	// run-tagged JSONL, in cell input order. Run's calling goroutine makes
	// every write, so a plain *os.File is safe.
	Telemetry io.Writer

	// Progress, when non-nil, receives a carriage-return progress line
	// (completed/total cells, elapsed wall time) as cells finish, and a
	// final newline. Point it at os.Stderr to keep stdout parseable. With a
	// Registry attached, the line also reports the fleet's live ops/sec and
	// ETA (computed from the registry's per-cell counters — the same source
	// the HTTP endpoints serve) and refreshes once a second while cells run.
	Progress io.Writer

	// Registry, when non-nil, publishes the run's cell lifecycle into the
	// live metrics registry served by -listen: every cell is registered as
	// queued before the workers start, transitions to running when a worker
	// picks it up, and ends done or failed. Cell replay metrics flow in
	// separately via sim.ObserveConfig.Cell.
	Registry *registry.Registry
}

// Run executes every cell on Options.Parallel workers and returns the
// outputs indexed like cells. The returned error joins every per-cell
// failure (tagged trace/scheme) plus any telemetry-sink write error; outputs
// of surviving cells are valid even when some cells failed. Output order,
// telemetry line order and all output bytes are independent of Parallel.
// Run returns once every worker has exited.
func Run(cells []Cell, fn Func, opts Options) ([]Output, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	// Register the whole fleet as queued before any worker starts, so a
	// scrape racing the ramp-up already sees every cell.
	regCells := make([]*registry.Cell, len(cells))
	if opts.Registry != nil {
		for i, c := range cells {
			regCells[i] = opts.Registry.OpenCell(c.RunTag(), registry.CellMeta{
				Trace:     c.Trace,
				Scheme:    string(c.Scheme),
				TargetOps: c.TargetOps,
			})
		}
	}

	outputs := make([]Output, len(cells))
	done := make([]chan struct{}, len(cells))
	for i := range done {
		done[i] = make(chan struct{})
	}
	prog := newProgress(opts.Progress, len(cells), opts.Registry)
	defer prog.stop()

	// Workers claim cells in input order from one counter. Each fills its
	// cell's outputs slot and closes done[i] when the cell has finished.
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(claimed.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				rc := regCells[i]
				if rc != nil {
					rc.SetState(registry.StateRunning)
				}
				out := ExecCell(fn, cells[i])
				outputs[i] = out
				if rc != nil {
					if out.Err != nil {
						rc.SetState(registry.StateFailed)
					} else {
						rc.PublishFinalWA(out.Result.WA)
						rc.SetState(registry.StateDone)
					}
				}
				prog.completed.Add(1)
				prog.print()
				close(done[i])
			}
		}()
	}

	// The caller is the single writer of the telemetry sink. Cells finish
	// in any order; each is emitted once every lower-index cell has been.
	errs := make([]error, len(cells))
	var sinkErr error
	for i := range cells {
		<-done[i]
		out := outputs[i]
		if out.Err != nil {
			errs[i] = out.Err
		} else if opts.Telemetry != nil && sinkErr == nil && (len(out.Events) > 0 || len(out.Samples) > 0) {
			if err := obs.WriteJSONL(opts.Telemetry, out.Cell.RunTag(), out.Events, out.Samples); err != nil {
				sinkErr = fmt.Errorf("runner: telemetry sink: %w", err)
			}
		}
	}
	wg.Wait()
	prog.stop()
	return outputs, errors.Join(append(errs, sinkErr)...)
}

// progress renders the carriage-return progress line. Without a registry it
// reproduces the historical completion-driven line exactly; with one it adds
// the fleet's live ops/sec and ETA (from the registry counters, the same
// figures /api/v1/status serves) and a once-a-second refresh ticker so the
// line advances during long cells, not just between them.
type progress struct {
	w         io.Writer
	total     int
	start     time.Time
	reg       *registry.Registry
	completed atomic.Int64

	mu       sync.Mutex
	lastLen  int
	stopped  bool
	stopTick chan struct{}
}

func newProgress(w io.Writer, total int, reg *registry.Registry) *progress {
	p := &progress{w: w, total: total, start: time.Now(), reg: reg}
	if w != nil && reg != nil {
		p.stopTick = make(chan struct{})
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-p.stopTick:
					return
				case <-tick.C:
					p.print()
				}
			}
		}()
	}
	return p
}

func (p *progress) line() string {
	s := fmt.Sprintf("%d/%d cells done, %s elapsed",
		p.completed.Load(), p.total, time.Since(p.start).Round(100*time.Millisecond))
	if p.reg == nil {
		return s
	}
	t := p.reg.Totals()
	if t.Ops == 0 {
		return s
	}
	// Sliding-window rate via the registry's shared helper, so the progress
	// line and /api/v1/status always agree. The lifetime average both used to
	// compute independently diverges the moment the rate changes — after a
	// slow warm-up the ETA stayed pessimistic for the whole run, and on a
	// burst-then-idle fleet it reported a stale positive rate forever.
	rate := p.reg.LiveOpsPerSec()
	if rate <= 0 {
		return s
	}
	s += fmt.Sprintf(", %.0f ops/s", rate)
	if t.TargetOps > t.Ops && rate > 0 {
		eta := time.Duration(float64(t.TargetOps-t.Ops) / rate * float64(time.Second))
		s += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
	}
	return s
}

// print redraws the line in place, space-padding over any longer previous
// line so a shrinking ETA never leaves stale characters.
func (p *progress) print() {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	s := p.line()
	pad := p.lastLen - len(s)
	if pad < 0 {
		pad = 0
	}
	p.lastLen = len(s)
	fmt.Fprintf(p.w, "\r%s%s", s, strings.Repeat(" ", pad))
}

// stop ends the refresh ticker and terminates the line with a newline.
// Idempotent (Run defers it for the error paths and calls it on success).
func (p *progress) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	if p.stopTick != nil {
		close(p.stopTick)
	}
	if p.w != nil {
		fmt.Fprintln(p.w)
	}
}

// ExecCell executes fn for one cell, converting a panic into an error so one
// bad cell cannot take down the whole sweep. Both engines route every cell
// through it: the batch Run above, and the fleet service's long-running
// workers (internal/fleet).
func ExecCell(fn Func, c Cell) (out Output) {
	defer func() {
		if r := recover(); r != nil {
			out = Output{Cell: c, Err: fmt.Errorf("%s: panic: %v\n%s", c.RunTag(), r, debug.Stack())}
		}
	}()
	o, err := fn(c)
	o.Cell = c
	if err != nil {
		o.Err = fmt.Errorf("%s: %w", c.RunTag(), err)
	}
	return o
}

// ParseSchemes validates a comma-separated scheme list against the Figure 5
// scheme set, preserving the caller's order. Empty selects all schemes.
func ParseSchemes(flagVal string) ([]sim.Scheme, error) {
	valid := sim.Schemes()
	if flagVal == "" {
		return valid, nil
	}
	names := make([]string, len(valid))
	for i, v := range valid {
		names[i] = string(v)
	}
	var out []sim.Scheme
	for _, f := range strings.Split(flagVal, ",") {
		s := sim.Scheme(strings.TrimSpace(f))
		ok := false
		for _, v := range valid {
			if s == v {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q (valid: %s)", s, strings.Join(names, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseTraces validates a comma-separated trace-ID list against the
// synthetic profile set, preserving the caller's order. Empty selects all
// profiles.
func ParseTraces(flagVal string) ([]workload.Profile, error) {
	if flagVal == "" {
		return workload.Profiles(), nil
	}
	var out []workload.Profile
	for _, f := range strings.Split(flagVal, ",") {
		id := strings.TrimSpace(f)
		p, ok := workload.ProfileByID(id)
		if !ok {
			all := append(workload.Profiles(), workload.TrimProfiles()...)
			names := make([]string, len(all))
			for i, q := range all {
				names[i] = q.ID
			}
			return nil, fmt.Errorf("unknown trace %q (valid: %s)", id, strings.Join(names, ", "))
		}
		out = append(out, p)
	}
	return out, nil
}
