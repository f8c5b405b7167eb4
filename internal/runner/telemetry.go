package runner

import (
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
)

// TelemetryFlags is the flag block wabench, perfbench and phftlsim share:
// -telemetry, -listen, -wall-durations and the runtime-profile flags.
type TelemetryFlags struct {
	Path          string // -telemetry
	listen        string
	wallDurations bool
	prof          obs.ProfileFlags
}

// Register installs the flags on fs. telemetryHelp is the -telemetry help
// text: the sweep harnesses tag lines by run, phftlsim does not.
func (t *TelemetryFlags) Register(fs *flag.FlagSet, telemetryHelp string) {
	fs.StringVar(&t.Path, "telemetry", "", telemetryHelp)
	fs.StringVar(&t.listen, "listen", "", "serve live telemetry over HTTP on this address while the run executes (e.g. :9090 or 127.0.0.1:0): /metrics, /api/v1/status, /api/v1/cells, /api/v1/events, /debug/pprof; the bound URL is printed to stderr")
	fs.BoolVar(&t.wallDurations, "wall-durations", false, "record wall-clock durations (window_retrain duration_ns) into telemetry; off by default so default telemetry stays byte-identical across runs, hosts and worker counts")
	t.prof.Register(fs)
}

// Telemetry is what Start made of the flags. A nil field means its flag was
// not given.
type Telemetry struct {
	CoreOpts *core.Options      // -wall-durations; nil selects the defaults
	Registry *registry.Registry // -listen; served until the process exits
	Sink     *os.File           // -telemetry; the caller writes and closes it
	StopProf func() error       // ends the profiles; never nil
}

// Start brings up the HTTP surface, the profiler and the JSONL sink, in that
// order, so a bad address or path fails before the replay, not after it.
func (t *TelemetryFlags) Start() (Telemetry, error) {
	var tel Telemetry
	if t.wallDurations {
		o := core.DefaultOptions()
		o.WallDurations = true
		tel.CoreOpts = &o
	}
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
	if tel.StopProf, err = t.prof.Start(); err != nil {
		return tel, err
	}
	if t.Path != "" {
		if tel.Sink, err = os.Create(t.Path); err != nil {
			return tel, err
		}
	}
	return tel, nil
}
