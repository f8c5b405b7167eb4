package runner

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
)

// TelemetryFlags is the flag block phftl sim, wa and perf share:
// -telemetry, -listen and the runtime-profile flags.
type TelemetryFlags struct {
	Path   string // -telemetry
	listen string
	prof   obs.ProfileFlags
}

// Register installs the flags on fs. telemetryHelp is the -telemetry help
// text: the sweep harnesses tag lines by run, phftl sim does not.
func (t *TelemetryFlags) Register(fs *flag.FlagSet, telemetryHelp string) {
	fs.StringVar(&t.Path, "telemetry", "", telemetryHelp)
	fs.StringVar(&t.listen, "listen", "", "serve live telemetry over HTTP on this address while the run executes (e.g. :9090 or 127.0.0.1:0): /metrics, /api/v1/status, /api/v1/cells, /api/v1/events, /debug/pprof; the bound URL is printed to stderr")
	t.prof.Register(fs)
}

// Telemetry is what Start made of the flags. A nil field means its flag was
// not given.
type Telemetry struct {
	Registry *registry.Registry // -listen; served until the process exits
	Sink     *os.File           // -telemetry; the caller writes it, Close closes it
	stopProf func() error
}

// Start brings up the HTTP surface, the profiler and the JSONL sink, in that
// order, so a bad address or path fails before the replay, not after it.
func (t *TelemetryFlags) Start() (Telemetry, error) {
	var tel Telemetry
	if t.listen != "" {
		tel.Registry = registry.New()
		srv, err := httpd.Serve(t.listen, tel.Registry)
		if err != nil {
			return tel, err
		}
		// Stderr so stdout stays parseable; the smoke harness reads the
		// bound URL off this line.
		fmt.Fprintf(os.Stderr, "telemetry: listening on %s\n", srv.URL())
	}
	var err error
	if tel.stopProf, err = t.prof.Start(); err != nil {
		return tel, err
	}
	if t.Path != "" {
		if tel.Sink, err = os.Create(t.Path); err != nil {
			return tel, err
		}
	}
	return tel, nil
}

// Options returns the Run options of a sweep under this telemetry: progress
// on stderr, cell lifecycle into the registry, events and samples to the sink.
func (t Telemetry) Options(parallel int) Options {
	o := Options{Parallel: parallel, Progress: os.Stderr, Registry: t.Registry}
	if t.Sink != nil { // a nil *os.File in the io.Writer would not compare nil
		o.Telemetry = t.Sink
	}
	return o
}

// Cell returns the live registry cell Run pre-opened for c, or nil without
// -listen.
func (t Telemetry) Cell(c Cell) *registry.Cell {
	if t.Registry == nil {
		return nil
	}
	return t.Registry.Cell(c.RunTag())
}

// Close closes the JSONL sink and ends the profiles Start began.
func (t Telemetry) Close() error {
	var err error
	if t.Sink != nil {
		err = t.Sink.Close()
	}
	return errors.Join(err, t.stopProf())
}
