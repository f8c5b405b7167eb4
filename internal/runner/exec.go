package runner

import (
	"context"

	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// Job is one cell's work order: everything Exec needs beyond the cell's
// identity.
type Job struct {
	// Cell supplies the scheme and, when OP is positive, the overprovisioning
	// ratio the drive is built at (OP sweeps).
	Cell
	// Profile sizes the drive and names the run. With Source nil its
	// generator is also the trace.
	Profile workload.Profile
	// DriveWrites is how many full-drive writes of the profile's generator to
	// replay.
	DriveWrites int
	// Source, when non-nil, is replayed to its end in place of the generator
	// (a trace file); DriveWrites and ctx then do not apply.
	Source trace.RecordSource
	// Live, when non-nil, publishes the replay into the live registry.
	Live *registry.Cell
	// SampleEvery is the sampling interval in user-page writes (0 = default).
	SampleEvery uint64
	// Sink asks for the run's buffered events and samples in the Output.
	Sink bool
}

// Exec is the one cell executor behind wabench, phftld and phftlsim: build
// the scheme over the profile's drive, observe it if anyone is watching,
// replay, finish, collect. Cancelling ctx stops a generator replay between
// trace records (errors.Is(err, context.Canceled)). The instance is returned
// for callers that read more than the Output carries (wear, geometry, the
// recorder behind a report).
func Exec(ctx context.Context, j Job) (*sim.Instance, Output, error) {
	p := j.Profile
	var in *sim.Instance
	var err error
	if j.OP > 0 {
		in, err = sim.BuildOP(j.Scheme, sim.GeometryForDriveOP(p.ExportedPages, p.PageSize, j.OP), j.OP, nil)
	} else {
		in, err = sim.Build(j.Scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), nil)
	}
	if err != nil {
		return nil, Output{}, err
	}
	Observe(in, j.Live, j.SampleEvery, j.Sink)
	var out Output
	if j.Source == nil {
		out.Result, err = sim.RunOnCtx(ctx, in, p, j.DriveWrites)
	} else if err = in.ReplayStream(j.Source, p.PageSize); err == nil {
		in.Finish()
		out.Result = in.Result(p.ID)
	}
	if err != nil {
		return nil, Output{}, err
	}
	if j.Sink {
		out.Collect(in)
	}
	return in, out, nil
}

// Observe instruments in when the cell has an audience — a live registry
// cell, a sink that wants the buffered events, or both — and returns the
// observation, nil when nobody is watching. Exported for the harness that
// builds its own instance (perfbench's timing machine).
func Observe(in *sim.Instance, live *registry.Cell, sampleEvery uint64, sink bool) *sim.Observation {
	if live == nil && !sink {
		return nil
	}
	return sim.Observe(in, sim.ObserveConfig{SampleEvery: sampleEvery, Cell: live})
}

// Collect copies a finished, observed instance's buffered telemetry into the
// output, for a sink; a live registry alone needs no copy.
func (out *Output) Collect(in *sim.Instance) {
	out.Events = in.Obs.Rec.Events()
	out.Samples = in.Obs.Sampler.Series()
	out.Dropped = in.Obs.Rec.Dropped()
}
