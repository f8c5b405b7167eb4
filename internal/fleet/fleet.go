// Package fleet is the long-running service counterpart to the batch engine
// in internal/runner: a supervisor whose workers live for the process
// lifetime and take simulation cells from a queue fed at runtime, instead of
// from a fixed list. It implements httpd.Controller, so cmd/phftld can
// expose it as the control plane of the telemetry server:
//
//	POST /api/v1/cells               -> SubmitCell (validate, journal, enqueue)
//	POST /api/v1/cells/{name}/cancel -> CancelCell (context-based, cooperative)
//	GET  /api/v1/fleet               -> registry.FleetWA over the cells it ran
//
// Lifecycle per cell: queued -> running -> done | failed | cancelled. A
// failure is terminal at once: every error a cell can return is
// deterministic (unknown traces are refused at submission, build and replay
// errors repeat identically, cancellation is its own outcome), so a retry
// would only replay it. Submissions append to a JSONL
// queue journal; on restart, cells without a journaled terminal state are
// re-registered and re-enqueued, so a killed service resumes its pending work
// — and, the simulations being deterministic, produces the results the
// uninterrupted service would have.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// Config sizes a Supervisor. Registry is required; everything else has
// serviceable zero defaults.
type Config struct {
	// Workers is the number of worker goroutines (<= 0 selects GOMAXPROCS).
	Workers int
	// Registry receives every cell's lifecycle and replay metrics; the HTTP
	// endpoints serve from it. Required.
	Registry *registry.Registry
	// JournalPath, when set, appends every submission and terminal transition
	// as JSONL; New replays it so pending cells survive a restart. Empty runs
	// journal-less (submissions die with the process).
	JournalPath string
	// DefaultDriveWrites fills a submission's zero DriveWrites (<= 0 means 1).
	DefaultDriveWrites int

	// exec overrides cell execution (tests inject failures and slow runs).
	exec execFunc
}

type execFunc func(ctx context.Context, spec httpd.CellSpec, rc *registry.Cell) (runner.Output, error)

// entry is one submitted cell's supervisor-side record.
type entry struct {
	id        uint64
	name      string
	spec      httpd.CellSpec
	rc        *registry.Cell
	cancelFn  context.CancelFunc // non-nil only while running
	cancelled bool               // CancelCell was called
	terminal  bool               // reached done/failed/cancelled
	// finalState holds a journal-replayed terminal state between loadJournal
	// and the registry registration that applies it.
	finalState registry.State
	out        runner.Output
}

// Supervisor is the fleet service: long-lived workers that pop cells from a
// pending queue fed by SubmitCell. All methods are safe for concurrent use.
type Supervisor struct {
	cfg Config

	baseCtx context.Context
	stop    context.CancelFunc

	mu          sync.Mutex
	cond        *sync.Cond
	entries     map[string]*entry
	order       []string // registration order, for Names
	pendingQ    []*entry
	outstanding int // entries not yet terminal
	nextID      uint64
	started     bool
	closed      bool
	journal     *os.File

	workers sync.WaitGroup
}

var _ httpd.Controller = (*Supervisor)(nil)

// New builds a supervisor and, when cfg.JournalPath names an existing
// journal, replays it: terminal cells are re-registered in their final state,
// pending cells are re-enqueued. No worker starts until Start.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Registry == nil {
		return nil, errors.New("fleet: Config.Registry is required")
	}
	if cfg.DefaultDriveWrites <= 0 {
		cfg.DefaultDriveWrites = 1
	}
	if cfg.exec == nil {
		cfg.exec = defaultExec
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Supervisor{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    stop,
		entries: map[string]*entry{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.JournalPath != "" {
		if err := s.loadJournal(cfg.JournalPath); err != nil {
			stop()
			return nil, err
		}
		f, err := os.OpenFile(cfg.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			stop()
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		s.journal = f
	}
	return s, nil
}

// Start launches the workers. Separate from New so a journal can be
// inspected (Pending) — or handed to a different process — without running
// anything.
func (s *Supervisor) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	n := s.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers.Add(n)
	for w := 0; w < n; w++ {
		go s.work()
	}
}

// SubmitCell validates one submission against the trace/scheme machinery the
// batch harnesses use, registers it queued, journals it and enqueues it.
// Implements httpd.Controller.
func (s *Supervisor) SubmitCell(spec httpd.CellSpec) (string, error) {
	// The parsers below trim each field; the cell is named, journaled and
	// run under the trimmed values they accepted.
	spec.Trace, spec.Scheme = strings.TrimSpace(spec.Trace), strings.TrimSpace(spec.Scheme)
	if spec.Trace == "" {
		return "", errors.New("fleet: cell spec missing trace")
	}
	if spec.Scheme == "" {
		return "", errors.New("fleet: cell spec missing scheme")
	}
	profiles, err := runner.ParseTraces(spec.Trace)
	if err != nil {
		return "", fmt.Errorf("fleet: %w", err)
	}
	if _, err := runner.ParseSchemes(spec.Scheme); err != nil {
		return "", fmt.Errorf("fleet: %w", err)
	}
	if len(profiles) != 1 || strings.Contains(spec.Trace, ",") || strings.Contains(spec.Scheme, ",") {
		return "", errors.New("fleet: submit exactly one trace and one scheme per cell")
	}
	if spec.DriveWrites < 0 {
		return "", fmt.Errorf("fleet: negative drive_writes %d", spec.DriveWrites)
	}
	if spec.DriveWrites == 0 {
		spec.DriveWrites = s.cfg.DefaultDriveWrites
	}
	if spec.OP < 0 || spec.OP >= 0.5 {
		return "", fmt.Errorf("fleet: op ratio %g out of range [0, 0.5)", spec.OP)
	}
	p := profiles[0]
	if spec.DriveWrites > math.MaxInt/p.ExportedPages {
		return "", fmt.Errorf("fleet: drive_writes %d overflows the page target of %s (%d pages per drive write)",
			spec.DriveWrites, spec.Trace, p.ExportedPages)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("fleet: supervisor is shut down")
	}
	s.nextID++
	name := fmt.Sprintf("%s/%s@j%d", spec.Trace, spec.Scheme, s.nextID)
	en := &entry{id: s.nextID, name: name, spec: spec}
	if err := s.journalLocked(journalLine{Op: "submit", ID: en.id, Name: name, Spec: &spec}); err != nil {
		s.nextID--
		return "", err
	}
	en.rc = s.cfg.Registry.OpenCell(name, registry.CellMeta{
		Trace:     spec.Trace,
		Scheme:    spec.Scheme,
		TargetOps: uint64(spec.DriveWrites) * uint64(p.ExportedPages),
	})
	s.entries[name] = en
	s.order = append(s.order, name)
	s.pendingQ = append(s.pendingQ, en)
	s.outstanding++
	s.cond.Broadcast()
	return name, nil
}

// CancelCell cancels a queued or running cell. A queued cell goes terminal
// immediately; a running one has its context cancelled and goes terminal when
// the replay loop notices (one trace record of latency). Implements
// httpd.Controller.
func (s *Supervisor) CancelCell(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := s.entries[name]
	if !ok {
		return fmt.Errorf("fleet: %q: %w", name, httpd.ErrUnknownCell)
	}
	if en.terminal {
		return fmt.Errorf("fleet: %q is %s: %w", name, en.rc.State(), httpd.ErrCellTerminal)
	}
	en.cancelled = true
	if en.cancelFn != nil {
		en.cancelFn() // the worker journals the terminal transition
		return nil
	}
	s.finishLocked(en, registry.StateCancelled)
	return nil
}

// Drain blocks until every submitted cell has reached a terminal state.
func (s *Supervisor) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.outstanding > 0 && !s.closed {
		s.cond.Wait()
	}
}

// Pending returns the number of cells waiting for a worker.
func (s *Supervisor) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pendingQ)
}

// Names returns every known cell name in registration order.
func (s *Supervisor) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Output returns a terminal cell's output (zero Output and false otherwise).
func (s *Supervisor) Output(name string) (runner.Output, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	en, ok := s.entries[name]
	if !ok || !en.terminal {
		return runner.Output{}, false
	}
	return en.out, true
}

// Shutdown stops the service gracefully: running cells are context-cancelled
// but NOT journaled terminal — unlike a user CancelCell, a shutdown is not a
// verdict on the cell, so interrupted and still-pending cells alike resume on
// the next Start of a supervisor over the same journal. Blocks until every
// worker has returned.
func (s *Supervisor) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	s.stop() // cancels every running cell's context
	s.workers.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		_ = s.journal.Close()
		s.journal = nil
	}
}

// work is one worker: it pops pending entries in submission order and runs
// them until Shutdown.
func (s *Supervisor) work() {
	defer s.workers.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.pendingQ) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		en := s.pendingQ[0]
		s.pendingQ = s.pendingQ[1:]
		if !en.terminal { // skip cells cancelled while queued
			s.runEntry(en)
		}
	}
}

// runEntry executes one popped cell and classifies the outcome: done,
// cancelled (user cancel), re-queued (a shutdown interruption), or failed.
// The caller holds s.mu, which runEntry releases while the cell runs.
func (s *Supervisor) runEntry(en *entry) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	en.cancelFn = cancel
	s.mu.Unlock()

	en.rc.SetState(registry.StateRunning)
	out := runner.ExecCell(func(runner.Cell) (runner.Output, error) {
		return s.cfg.exec(ctx, en.spec, en.rc)
	}, runner.Cell{Trace: en.spec.Trace, Scheme: sim.Scheme(en.spec.Scheme), OP: en.spec.OP})

	s.mu.Lock()
	en.cancelFn = nil
	switch {
	case out.Err == nil:
		en.out = out
		en.rc.PublishFinalWA(out.Result.WA)
		s.finishLocked(en, registry.StateDone)
	case errors.Is(out.Err, context.Canceled):
		if en.cancelled {
			en.out = out
			s.finishLocked(en, registry.StateCancelled)
		} else {
			// Graceful shutdown: back to queued with no journal entry, so
			// the next process re-runs the cell from scratch.
			en.rc.SetState(registry.StateQueued)
		}
	default:
		en.out = out
		s.finishLocked(en, registry.StateFailed)
	}
}

// finishLocked marks an entry terminal, journals the transition and wakes
// Drain. Caller holds s.mu.
func (s *Supervisor) finishLocked(en *entry, st registry.State) {
	en.terminal = true
	en.rc.SetState(st)
	_ = s.journalLocked(journalLine{Op: "state", Name: en.name, Stat: st.String()})
	s.outstanding--
	s.cond.Broadcast()
}

// defaultExec runs the spec through the batch harnesses' cell executor:
// default or sweep geometry, optional intra-cell workers, live-registry
// observation, buffered events/samples in the output.
func defaultExec(ctx context.Context, spec httpd.CellSpec, rc *registry.Cell) (runner.Output, error) {
	p, ok := workload.ProfileByID(spec.Trace)
	if !ok {
		return runner.Output{}, fmt.Errorf("fleet: unknown trace %q", spec.Trace)
	}
	_, out, err := runner.Exec(ctx, runner.Job{
		Cell:    runner.Cell{Trace: spec.Trace, Scheme: sim.Scheme(spec.Scheme), OP: spec.OP},
		Profile: p, DriveWrites: spec.DriveWrites,
		Live: rc, Sink: true,
	})
	return out, err
}
