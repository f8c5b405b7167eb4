package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// smallExec is defaultExec over shrunken drives (4096 pages), so the
// journal-resume determinism test runs in milliseconds while exercising the
// same executor.
func smallExec(ctx context.Context, spec httpd.CellSpec, rc *registry.Cell) (runner.Output, error) {
	p, ok := workload.ProfileByID(spec.Trace)
	if !ok {
		return runner.Output{}, fmt.Errorf("unknown trace %q", spec.Trace)
	}
	p.ExportedPages = 4096
	_, out, err := runner.Exec(ctx, runner.Job{
		Cell:    runner.Cell{Trace: spec.Trace, Scheme: sim.Scheme(spec.Scheme)},
		Profile: p, DriveWrites: spec.DriveWrites,
		Live: rc, Sink: true,
	})
	return out, err
}

func newSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = registry.New()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestSubmitValidation(t *testing.T) {
	s := newSupervisor(t, Config{exec: smallExec})
	bad := []httpd.CellSpec{
		{},
		{Trace: "#52"},
		{Scheme: "PHFTL"},
		{Trace: "nope", Scheme: "PHFTL"},
		{Trace: "#52", Scheme: "NopeFTL"},
		{Trace: "#52,#144", Scheme: "PHFTL"},
		{Trace: "#52", Scheme: "Base,PHFTL"},
		{Trace: "#52", Scheme: "PHFTL", DriveWrites: -1},
		{Trace: "#52", Scheme: "PHFTL", DriveWrites: 1e15}, // page target overflows
		{Trace: "#52", Scheme: "PHFTL", OP: -0.1},
		{Trace: "#52", Scheme: "PHFTL", OP: 0.6},
	}
	for _, spec := range bad {
		if _, err := s.SubmitCell(spec); err == nil {
			t.Errorf("SubmitCell(%+v) accepted", spec)
		}
	}
	name, err := s.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "PHFTL"})
	if err != nil {
		t.Fatal(err)
	}
	if name != "#52/PHFTL@j1" {
		t.Fatalf("name = %q", name)
	}
	if c := s.cfg.Registry.Cell(name); c == nil || c.State() != registry.StateQueued {
		t.Fatalf("cell not registered queued: %v", c)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

// storedSpec returns the spec the supervisor keeps for a cell: the one it
// journals and runs.
func (s *Supervisor) storedSpec(name string) httpd.CellSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[name].spec
}

// TestSubmitTrimsFields: a spec whose fields carry padding is named,
// stored and run under the trimmed values its validation accepted.
func TestSubmitTrimsFields(t *testing.T) {
	s := newSupervisor(t, Config{exec: smallExec})
	name, err := s.SubmitCell(httpd.CellSpec{Trace: " #52", Scheme: "Base ", DriveWrites: 1})
	if err != nil {
		t.Fatal(err)
	}
	if name != "#52/Base@j1" {
		t.Fatalf("name = %q, want %q", name, "#52/Base@j1")
	}
	if spec := s.storedSpec(name); spec.Trace != "#52" || spec.Scheme != "Base" {
		t.Fatalf("stored spec %q/%q", spec.Trace, spec.Scheme)
	}
	s.Start()
	s.Drain()
	if st := s.cfg.Registry.Cell(name).State(); st != registry.StateDone {
		t.Fatalf("cell %s ended %v", name, st)
	}
}

// render flattens an output for NaN-safe byte comparison (fmt prints NaN
// consistently; json.Marshal rejects it).
func render(out runner.Output) string {
	return fmt.Sprintf("res=%+v samples=%v", out.Result, out.Samples)
}

// TestJournalResumeIdenticalResults is the tentpole acceptance test: cells
// submitted to a journaled supervisor that is killed before running anything
// are resumed by a fresh supervisor over the same journal, and — the
// simulations being deterministic — produce outputs byte-identical to an
// uninterrupted service's.
func TestJournalResumeIdenticalResults(t *testing.T) {
	specs := []httpd.CellSpec{
		{Trace: "#52", Scheme: "PHFTL", DriveWrites: 2},
		{Trace: "#144", Scheme: "Base", DriveWrites: 2},
	}
	journal := filepath.Join(t.TempDir(), "queue.jsonl")

	// Phase 1: submit, never start, shut down ("kill" with pending work).
	s1 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	for _, spec := range specs {
		if _, err := s1.SubmitCell(spec); err != nil {
			t.Fatal(err)
		}
	}
	s1.Shutdown()

	// Phase 2: a fresh supervisor over the same journal resumes the queue.
	s2 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	if s2.Pending() != 2 {
		t.Fatalf("resumed Pending = %d, want 2", s2.Pending())
	}
	s2.Start()
	s2.Drain()
	names := s2.Names()
	if len(names) != 2 {
		t.Fatalf("resumed names: %v", names)
	}

	// Reference: the same specs through an uninterrupted journal-less run.
	ref := newSupervisor(t, Config{exec: smallExec})
	for _, spec := range specs {
		if _, err := ref.SubmitCell(spec); err != nil {
			t.Fatal(err)
		}
	}
	ref.Start()
	ref.Drain()

	for _, name := range names {
		got, ok := s2.Output(name)
		if !ok {
			t.Fatalf("%s: no output after Drain", name)
		}
		want, ok := ref.Output(name)
		if !ok {
			t.Fatalf("%s: reference run has no output (name drift)", name)
		}
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%s: errs %v / %v", name, got.Err, want.Err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: resumed output diverged\n got %s\nwant %s", name, render(got), render(want))
		}
		if !reflect.DeepEqual(got.Events, want.Events) {
			t.Errorf("%s: event streams diverged (%d vs %d events)", name, len(got.Events), len(want.Events))
		}
		if st := s2.cfg.Registry.Cell(name).State(); st != registry.StateDone {
			t.Errorf("%s: state %v, want done", name, st)
		}
	}

	// Phase 3: the journal now carries terminal states — a third supervisor
	// over it has nothing pending and every cell done.
	s3 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	if s3.Pending() != 0 {
		t.Fatalf("post-drain journal left Pending = %d", s3.Pending())
	}
	for _, name := range names {
		if st := s3.cfg.Registry.Cell(name).State(); st != registry.StateDone {
			t.Errorf("%s: replayed state %v, want done", name, st)
		}
	}
}

// blockingExec parks cells until their context is cancelled, reporting each
// start on the channel.
func blockingExec(started chan<- string) execFunc {
	return func(ctx context.Context, spec httpd.CellSpec, rc *registry.Cell) (runner.Output, error) {
		started <- spec.Trace + "/" + spec.Scheme
		<-ctx.Done()
		return runner.Output{}, ctx.Err()
	}
}

// TestCancelWhileRunning pins the satellite invariant: a user cancel of a
// running cell ends it cancelled — never failed — and a second cancel is a
// conflict.
func TestCancelWhileRunning(t *testing.T) {
	started := make(chan string, 1)
	s := newSupervisor(t, Config{Workers: 1, exec: blockingExec(started)})
	name, err := s.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "PHFTL"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("cell never started")
	}
	if err := s.CancelCell(name); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if st := s.cfg.Registry.Cell(name).State(); st != registry.StateCancelled {
		t.Fatalf("state = %v, want cancelled (must never be failed)", st)
	}
	if err := s.CancelCell(name); !errors.Is(err, httpd.ErrCellTerminal) {
		t.Fatalf("re-cancel err = %v, want ErrCellTerminal", err)
	}
	if err := s.CancelCell("ghost"); !errors.Is(err, httpd.ErrUnknownCell) {
		t.Fatalf("unknown cancel err = %v, want ErrUnknownCell", err)
	}
}

// waitFor polls cond until it holds, failing the test after 20 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPendingCountsEveryWaitingCell: with one worker busy, every other
// submitted cell is still in the queue and Pending counts it. A cell is
// taken off the queue only by the worker that runs it.
func TestPendingCountsEveryWaitingCell(t *testing.T) {
	started := make(chan string, 3)
	s := newSupervisor(t, Config{Workers: 1, exec: blockingExec(started)})
	s.Start()
	for _, tr := range []string{"#52", "#144", "#326"} {
		if _, err := s.SubmitCell(httpd.CellSpec{Trace: tr, Scheme: "Base"}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if got := s.Pending(); got != 2 {
			t.Fatalf("Pending = %d with 1 cell running and 2 queued, want 2", got)
		}
	}
}

// TestShutdownLeavesNoGoroutines: Shutdown returns only after every worker,
// busy or idle, has exited, so the process is back to its goroutine count
// from before New.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	started := make(chan string, 2)
	s := newSupervisor(t, Config{Workers: 3, exec: blockingExec(started)})
	s.Start()
	for _, tr := range []string{"#52", "#144"} {
		if _, err := s.SubmitCell(httpd.CellSpec{Trace: tr, Scheme: "Base"}); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	s.Shutdown()
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestCellWorkersLeaveNoGoroutines is the regression test for the leak a
// PHFTL cell with more than one retraining worker left behind when it did not
// finish: the helpers used to belong to the instance and were only stopped by
// Finish, which a cancelled or failed replay never reached (+3 goroutines per
// attempt). They now live inside one training pass (and the threshold probes
// inside one Pick), so the process returns to its pre-submit goroutine count
// whether the cell is cancelled mid-replay or fails. GOMAXPROCS 4 gives the
// default trainer all four lanes.
func TestCellWorkersLeaveNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// A replay that cannot finish inside its deadline fails with
	// context.DeadlineExceeded — a failure, not a cancellation, to runEntry.
	timeoutExec := func(ctx context.Context, spec httpd.CellSpec, rc *registry.Cell) (runner.Output, error) {
		ctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		defer cancel()
		return smallExec(ctx, spec, rc)
	}
	for _, tc := range []struct {
		name   string
		exec   execFunc
		cancel bool
		want   registry.State
	}{
		{"cancelled", smallExec, true, registry.StateCancelled},
		{"failed", timeoutExec, false, registry.StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSupervisor(t, Config{Workers: 1, exec: tc.exec})
			s.Start()
			before := runtime.NumGoroutine()
			name, err := s.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "PHFTL", DriveWrites: 100000})
			if err != nil {
				t.Fatal(err)
			}
			if tc.cancel {
				// One drive write in: a score of windows have been retrained.
				waitFor(t, "replay progress", func() bool { return s.cfg.Registry.Totals().Ops >= 4096 })
				if err := s.CancelCell(name); err != nil {
					t.Fatal(err)
				}
			}
			s.Drain()
			if st := s.cfg.Registry.Cell(name).State(); st != tc.want {
				t.Fatalf("state = %v, want %v", st, tc.want)
			}
			if out, ok := s.Output(name); !ok || out.Err == nil {
				t.Fatalf("terminal output = %+v, %v; want the replay's error", out, ok)
			}
			// Drain can return a moment before the worker has unwound.
			waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
		})
	}
}

// TestCancelQueued pins cancellation before a worker takes the cell: it goes
// terminal immediately and the worker that pops it skips it.
func TestCancelQueued(t *testing.T) {
	s := newSupervisor(t, Config{Workers: 1, exec: smallExec})
	name, err := s.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "Base", DriveWrites: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CancelCell(name); err != nil {
		t.Fatal(err)
	}
	if st := s.cfg.Registry.Cell(name).State(); st != registry.StateCancelled {
		t.Fatalf("state = %v, want cancelled", st)
	}
	s.Start()
	s.Drain() // returns immediately: nothing outstanding
	if _, ok := s.Output(name); !ok {
		t.Fatal("cancelled cell has no terminal output record")
	}
}

// TestShutdownRequeuesRunning pins the graceful-shutdown contract: a running
// cell interrupted by Shutdown is NOT journaled terminal, so the next
// supervisor over the journal re-runs it.
func TestShutdownRequeuesRunning(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "queue.jsonl")
	started := make(chan string, 1)
	s := newSupervisor(t, Config{Workers: 1, JournalPath: journal, exec: blockingExec(started)})
	name, err := s.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "PHFTL"})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("cell never started")
	}
	s.Shutdown()

	s2 := newSupervisor(t, Config{JournalPath: journal, exec: smallExec})
	if s2.Pending() != 1 {
		t.Fatalf("Pending after shutdown-with-running = %d, want 1", s2.Pending())
	}
	if st := s2.cfg.Registry.Cell(name).State(); st != registry.StateQueued {
		t.Fatalf("resumed state = %v, want queued", st)
	}
	if _, err := s.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "Base"}); err == nil {
		t.Fatal("submit after Shutdown accepted")
	}
}

// TestJournalTornFinalLine pins what journalLocked's "a killed process loses
// at most the line being written" needs from the reader: a final line that
// has neither a newline nor valid JSON is dropped, not fatal; the journal is
// cut back so the next record starts on its own line; and the same garbage
// anywhere but the end is still an error.
func TestJournalTornFinalLine(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "queue.jsonl")
	s1 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	var names []string
	for _, tr := range []string{"#52", "#144", "#326"} {
		name, err := s1.SubmitCell(httpd.CellSpec{Trace: tr, Scheme: "Base"})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := s1.CancelCell(names[1]); err != nil {
		t.Fatal(err)
	}
	s1.Shutdown()
	intact, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	const torn = `{"op":"submit","id":4,"name":"#52/Base@j4","spe`
	if err := os.WriteFile(journal, append(intact[:len(intact):len(intact)], torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart over the torn journal: the state from before the tear.
	s2 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	if got := s2.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("names after torn restart = %v, want %v", got, names)
	}
	if s2.Pending() != 2 {
		t.Fatalf("Pending after torn restart = %d, want 2", s2.Pending())
	}
	if st := s2.cfg.Registry.Cell(names[1]).State(); st != registry.StateCancelled {
		t.Fatalf("cancelled cell resumed as %v", st)
	}
	if got, _ := os.ReadFile(journal); string(got) != string(intact) {
		t.Fatalf("journal not cut back to its last complete line:\n%q", got)
	}
	// The next record lands on a line of its own, and a second restart reads it.
	fourth, err := s2.SubmitCell(httpd.CellSpec{Trace: "#52", Scheme: "Base"})
	if err != nil {
		t.Fatal(err)
	}
	s2.Shutdown()
	s3 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	if got, want := s3.Names(), append(names, fourth); !reflect.DeepEqual(got, want) {
		t.Fatalf("names after second restart = %v, want %v", got, want)
	}
	s3.Shutdown()

	// A whole record that lost only its newline is kept and terminated.
	grown, _ := os.ReadFile(journal)
	if err := os.WriteFile(journal, grown[:len(grown)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	s4 := newSupervisor(t, Config{exec: smallExec, JournalPath: journal})
	if got := s4.Names(); len(got) != 4 {
		t.Fatalf("names after unterminated restart = %v", got)
	}
	s4.Shutdown()
	if got, _ := os.ReadFile(journal); string(got) != string(grown) {
		t.Fatalf("unterminated final record not terminated:\n%q", got)
	}

	// Unparsable anywhere else: still refused.
	if err := os.WriteFile(journal, append([]byte(torn+"\n"), intact...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Registry: registry.New(), JournalPath: journal}); err == nil {
		t.Fatal("journal with an unparsable interior line accepted")
	}
}
