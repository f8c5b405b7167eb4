package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/workload"
)

// journalLine is one record of the append-only queue journal. Two shapes:
//
//	{"op":"submit","id":3,"name":"#52/PHFTL@j3","spec":{...}}   a submission
//	{"op":"state","name":"#52/PHFTL@j3","state":"done"}          a terminal transition
//
// Only terminal transitions are journaled — running is reconstructed as
// queued on replay (the run never finished, so it must start over), and a
// graceful shutdown deliberately writes nothing so interrupted cells resume.
type journalLine struct {
	Op   string          `json:"op"`
	ID   uint64          `json:"id,omitempty"`
	Name string          `json:"name"`
	Spec *httpd.CellSpec `json:"spec,omitempty"`
	Stat string          `json:"state,omitempty"`
}

func stateByName(name string) (registry.State, bool) {
	for s := 0; s < registry.NumStates; s++ {
		if registry.State(s).String() == name {
			return registry.State(s), true
		}
	}
	return 0, false
}

// loadJournal replays an existing journal into the supervisor: every
// submission is re-registered, terminal states are applied, and everything
// still pending is re-enqueued in submission order. Called from New before
// the journal is reopened for appending.
//
// A final line with no newline is what journalLocked was writing when the
// process was killed. If it does not parse it is dropped and the file cut
// back to the last complete line; if the record is whole and only its newline
// is missing, it is replayed and terminated. Either way the next append
// starts on a line of its own. An unparsable line anywhere else is an error.
func (s *Supervisor) loadJournal(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleet: open journal: %w", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var end int64 // offset just past the last line replayed
	for lineNo, last := 1, false; !last; lineNo++ {
		raw, err := r.ReadBytes('\n')
		last = err == io.EOF // raw is what follows the final newline, if anything
		if err != nil && !last {
			return fmt.Errorf("fleet: journal %s: %w", path, err)
		}
		end += int64(len(raw))
		line := bytes.TrimSuffix(raw, []byte("\n"))
		if len(line) == 0 {
			continue
		}
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil {
			if !last {
				return fmt.Errorf("fleet: journal %s:%d: %w", path, lineNo, err)
			}
			if err := f.Truncate(end - int64(len(raw))); err != nil {
				return fmt.Errorf("fleet: journal %s: drop torn line %d: %w", path, lineNo, err)
			}
			break
		}
		if last {
			if _, err := f.WriteAt([]byte("\n"), end); err != nil {
				return fmt.Errorf("fleet: journal %s: terminate line %d: %w", path, lineNo, err)
			}
		}
		switch l.Op {
		case "submit":
			if l.Spec == nil || l.Name == "" {
				return fmt.Errorf("fleet: journal %s:%d: submit without spec/name", path, lineNo)
			}
			en := &entry{id: l.ID, name: l.Name, spec: *l.Spec}
			s.entries[l.Name] = en
			s.order = append(s.order, l.Name)
			if l.ID > s.nextID {
				s.nextID = l.ID
			}
		case "state":
			en, ok := s.entries[l.Name]
			if !ok {
				return fmt.Errorf("fleet: journal %s:%d: state for unknown cell %q", path, lineNo, l.Name)
			}
			st, ok := stateByName(l.Stat)
			if !ok || !st.Terminal() {
				return fmt.Errorf("fleet: journal %s:%d: bad terminal state %q", path, lineNo, l.Stat)
			}
			en.terminal = true
			en.finalState = st
		default:
			return fmt.Errorf("fleet: journal %s:%d: unknown op %q", path, lineNo, l.Op)
		}
	}

	// Register every cell with the registry in submission order, then
	// enqueue the survivors. TargetOps needs the profile; a journal written
	// by a newer binary could name a trace this one lacks — surface that
	// rather than running a cell we cannot build.
	for _, name := range s.order {
		en := s.entries[name]
		var target uint64
		if p, ok := workload.ProfileByID(en.spec.Trace); ok {
			target = uint64(en.spec.DriveWrites) * uint64(p.ExportedPages)
		} else if !en.terminal {
			return fmt.Errorf("fleet: journal %s: pending cell %q has unknown trace %q", path, name, en.spec.Trace)
		}
		en.rc = s.cfg.Registry.OpenCell(name, registry.CellMeta{
			Trace:     en.spec.Trace,
			Scheme:    en.spec.Scheme,
			TargetOps: target,
		})
		if en.terminal {
			en.rc.SetState(en.finalState)
			continue
		}
		s.pendingQ = append(s.pendingQ, en)
		s.outstanding++
	}
	return nil
}

// journalLocked appends one line and flushes it to the OS, so a killed
// process loses at most the line being written. Caller holds s.mu. A nil
// journal (no JournalPath) is a no-op.
func (s *Supervisor) journalLocked(l journalLine) error {
	if s.journal == nil {
		return nil
	}
	raw, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("fleet: journal encode: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := s.journal.Write(raw); err != nil {
		return fmt.Errorf("fleet: journal write: %w", err)
	}
	return nil
}
