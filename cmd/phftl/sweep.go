package main

import (
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// sweep is the trace×scheme grid behind wa, perf and clf, and the telemetry
// it runs under.
type sweep struct {
	profiles []workload.Profile
	schemes  []sim.Scheme
	tf       *runner.TelemetryFlags
	tel      runner.Telemetry
}

// cellFunc runs one cell of a sweep over its trace's profile.
type cellFunc func(c runner.Cell, p workload.Profile) (runner.Output, error)

// newSweep parses the -traces and -schemes lists ("" selects every one) and
// starts tf's telemetry (listener, profiles, JSONL sink), so that a bad value
// fails before any replay. clf registers no telemetry flags, so its tf is
// the zero value, which starts nothing.
func newSweep(traces, schemes string, tf *runner.TelemetryFlags) (*sweep, error) {
	profiles, err := runner.ParseTraces(traces)
	if err != nil {
		return nil, err
	}
	ss, err := runner.ParseSchemes(schemes)
	if err != nil {
		return nil, err
	}
	tel, err := tf.Start()
	if err != nil {
		return nil, err
	}
	return &sweep{profiles: profiles, schemes: ss, tf: tf, tel: tel}, nil
}

// run replays the grid through runner.Run on parallel workers (0 =
// GOMAXPROCS): every trace, then every OP ratio of ops (nil: the default
// only), then every scheme, with target giving a cell's expected page
// writes. It returns the outputs in that order, and the joined error of the
// cells that failed.
func (s *sweep) run(parallel int, ops []float64, target func(workload.Profile) uint64, fn cellFunc) ([]runner.Output, error) {
	if ops == nil {
		ops = []float64{0}
	}
	byID := make(map[string]workload.Profile, len(s.profiles))
	cells := make([]runner.Cell, 0, len(s.profiles)*len(ops)*len(s.schemes))
	for _, p := range s.profiles {
		byID[p.ID] = p
		for _, op := range ops {
			for _, sc := range s.schemes {
				cells = append(cells, runner.Cell{Trace: p.ID, Scheme: sc, OP: op, TargetOps: target(p)})
			}
		}
	}
	outs, err := runner.Run(cells, func(c runner.Cell) (runner.Output, error) {
		return fn(c, byID[c.Trace])
	}, s.tel.Options(parallel))
	runner.WarnDropped(os.Stderr, outs)
	return outs, err
}

// finish writes the -csv table, if asked for, then closes the telemetry,
// printing a `wrote …` line for each file.
func (s *sweep) finish(csvPath, csv string) error {
	if err := writeFile(csvPath, csv); err != nil {
		return err
	}
	if err := s.tel.Close(); err != nil {
		return err
	}
	if s.tel.Sink != nil {
		fmt.Printf("wrote %s\n", s.tf.Path)
	}
	return nil
}

// writeFile writes body to path and says so; an empty path writes nothing.
func writeFile(path, body string) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
