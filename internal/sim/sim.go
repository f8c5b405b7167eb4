// Package sim glues the pieces into runnable experiments: it sizes device
// geometries for the scaled-down drives, constructs each evaluated scheme
// (Base, 2R, SepBIT, PHFTL) over the same geometry, replays traces, and
// collects per-run results. The cmd/ harnesses and the benchmark suite are
// thin wrappers over this package.
package sim

import (
	"context"
	"fmt"
	"io"
	"math"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/sepbit"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/tworegion"
	"github.com/phftl/phftl/internal/workload"
)

// Scheme identifies a data-separation scheme under evaluation.
type Scheme string

// The four schemes of Figure 5.
const (
	SchemeBase   Scheme = "Base"
	Scheme2R     Scheme = "2R"
	SchemeSepBIT Scheme = "SepBIT"
	SchemePHFTL  Scheme = "PHFTL"
)

// Schemes returns the Figure 5 scheme set in presentation order.
func Schemes() []Scheme {
	return []Scheme{SchemeBase, Scheme2R, SchemeSepBIT, SchemePHFTL}
}

// phftlStreams is the stream count PHFTL needs; geometries are sized for it
// so every scheme shares one geometry.
const phftlStreams = 7

// GeometryForDrive sizes a device for a scaled drive: 4 dies, ~128-page
// superblocks, 7% OP, and enough superblocks for PHFTL's GC reserve.
func GeometryForDrive(exportedPages, pageSize int) nand.Geometry {
	return GeometryForDriveOP(exportedPages, pageSize, 0.07)
}

// GeometryForDriveOP is GeometryForDrive at an arbitrary overprovisioning
// ratio, for OP sweeps. The superblock-count target uses integer basis-point
// arithmetic so the default 7% sizing is bit-identical to what the fixed
// GeometryForDrive always produced.
func GeometryForDriveOP(exportedPages, pageSize int, opRatio float64) nand.Geometry {
	dies := 4
	opBP := int(opRatio*10000 + 0.5)
	targetSBs := (exportedPages*(10000+opBP)/10000)/(dies*32) + 1
	if targetSBs < 320 {
		// Small drives need many (small) superblocks: the OP spare must
		// fund the GC floor plus garbage headroom in whole superblocks.
		// The floor scales with the requested OP (320 at the default 7%):
		// with a fixed floor, small-drive physical capacity would quantize
		// so coarsely that different OP ratios collapse onto the same
		// geometry and an OP sweep would measure nothing.
		targetSBs = 320 * (10000 + opBP) / 10700
	}
	return ftl.GeometryFor(exportedPages, opRatio, 1, phftlStreams, dies, targetSBs, pageSize, 64)
}

// Instance is one scheme instantiated over a device.
type Instance struct {
	Scheme Scheme
	FTL    *ftl.FTL
	PHFTL  *core.PHFTL // nil for baselines

	// Obs, when non-nil (installed by Observe), collects trace events and
	// periodic samples during Replay/RunOn.
	Obs *Observation
}

// SetCellWorkers pins how many goroutines retrain PHFTL's classifier at each
// window end, in place of the default of one per CPU (min(TrainerLanes,
// GOMAXPROCS)): the retrainer's core.TrainerLanes gradient shards are spread
// over n goroutines that exist only for the duration of a training pass.
// Values above TrainerLanes are clamped to it, n <= 1 is serial, and a scheme
// without a trainer (Base/2R/SepBIT) ignores the call. Results are
// byte-identical for every n; only wall-clock changes. Benchmarks and tests
// use it; the binaries leave the default (GOMAXPROCS=1 makes a run serial).
func (in *Instance) SetCellWorkers(n int) {
	if in.PHFTL != nil {
		in.PHFTL.SetTrainWorkers(n)
	}
}

// Observation couples a trace recorder and a gauge sampler to an instance.
type Observation struct {
	Rec     *obs.TraceRecorder
	Sampler *obs.Sampler

	// QueueDepth, when non-nil, supplies the timing model's busy-die count
	// to samples (set by perfsim.Machine.Observe).
	QueueDepth func() float64

	// Latency, when non-nil, supplies per-interval P50/P99 write-request
	// latencies in milliseconds (set by perfsim.Machine.Observe). Each call
	// drains the interval's accumulated latencies, so consecutive samples
	// report disjoint intervals; NaN means no timed writes this interval.
	Latency func() (p50, p99 float64)
}

// ObserveConfig sizes an Observation. Zero values select defaults.
type ObserveConfig struct {
	// SampleEvery is the sampling interval in user-page writes (default:
	// 1/64th of the exported capacity, floored at 64 pages).
	SampleEvery uint64
	// Cell, when non-nil, additionally publishes the run into the live
	// metrics registry (the -listen HTTP telemetry surface): events are teed
	// into the cell's counters and the drain ring, and every sampler snapshot
	// updates the cell's gauges and cumulative write counters. Nil keeps the
	// historical buffered-only observation.
	Cell *registry.Cell
}

// Observe instruments an instance: the FTL, the PHFTL scheme and its
// metadata store all emit into one trace recorder, and a sampler snapshots
// interval WA, free superblocks, per-stream open-superblock fill, threshold,
// cache hit ratio and the device's wear skew/CoV on the virtual clock. Call
// before Replay/RunOn.
func Observe(in *Instance, cfg ObserveConfig) *Observation {
	every := cfg.SampleEvery
	if every == 0 {
		every = uint64(in.FTL.ExportedPages() / 64)
		if every < 64 {
			every = 64
		}
	}
	o := &Observation{Rec: obs.NewTraceRecorder(0)}
	// The live-registry cell (if any) sees the same event stream as the
	// buffered recorder. The typed-nil guard matters: a nil *registry.Cell
	// wrapped in the Recorder interface would not compare equal to nil.
	var rec obs.Recorder = o.Rec
	if cfg.Cell != nil {
		rec = obs.Tee(o.Rec, cfg.Cell)
	}
	dev := in.FTL.Device()
	dev.SetEraseHook(func(die, blk, count int) {
		rec.Record(obs.Event{
			Kind:  obs.KindErase,
			Clock: in.FTL.Clock(),
			SB:    int32(blk),
			A:     int64(die),
			B:     int64(blk),
			C:     int64(count),
		})
	})
	var prevUser, prevFlash uint64
	var fillBuf []float64
	o.Sampler = obs.NewSampler(every, func(clock uint64) obs.Sample {
		st := in.FTL.Stats()
		fillBuf = in.FTL.OpenFill(fillBuf)
		s := obs.Sample{
			Clock:      clock,
			IntervalWA: metrics.WriteAmp(st.FlashPageWrites()-prevFlash, st.UserPageWrites-prevUser),
			CumWA:      st.WA(),
			FreeSB:     in.FTL.FreeSuperblocks(),
			OpenFill:   append([]float64(nil), fillBuf...),
			// Baselines have no metadata cache; NaN marks the gauge as
			// not-applicable (the sinks omit it) instead of a fake 100%.
			CacheHitRatio: math.NaN(),
			// Functional replays have no timing model; NaN keeps the
			// latency fields out of the sinks (same convention as above).
			LatencyP50MS: math.NaN(),
			LatencyP99MS: math.NaN(),
			// NaN until the first erase.
			WearSkew: dev.WearSkew(),
			WearCoV:  dev.WearCoV(),
		}
		prevUser, prevFlash = st.UserPageWrites, st.FlashPageWrites()
		if in.PHFTL != nil {
			s.Threshold = in.PHFTL.Threshold()
			s.CacheHitRatio = in.PHFTL.MetaStats().HitRate()
		}
		if o.QueueDepth != nil {
			s.QueueDepth = o.QueueDepth()
		}
		if o.Latency != nil {
			s.LatencyP50MS, s.LatencyP99MS = o.Latency()
		}
		if cfg.Cell != nil {
			cfg.Cell.PublishSample(s, registry.FTLTotals{
				UserWrites: st.UserPageWrites,
				GCWrites:   st.GCPageWrites,
				MetaWrites: st.MetaPageWrites,
			})
		}
		return s
	})
	in.FTL.SetRecorder(rec)
	if in.PHFTL != nil {
		in.PHFTL.SetRecorder(rec, in.FTL.Clock)
	}
	in.Obs = o
	return o
}

// Finish takes a final sample at the given clock.
func (o *Observation) Finish(clock uint64) { o.Sampler.Final(clock) }

// Spec chooses how Build assembles a scheme. A nil Spec, or a zero field,
// keeps the default.
type Spec struct {
	// OP is the overprovisioning ratio (default: ftl.DefaultConfig's 7%).
	// The geometry should come from GeometryForDriveOP at the same ratio so
	// the spare actually exists.
	OP float64
	// Device is a fresh device to build over, so a timing model can install
	// its hooks first; host reads on it are charged as flash reads. Default:
	// a new device of the geometry, with host reads not charged.
	Device *nand.Device
	// Policy names the GC victim policy: "adjusted" (Adjusted Greedy, PHFTL
	// only and its default), "greedy" or "costbenefit" (the baselines'
	// default).
	Policy string
	// PHFTL configures SchemePHFTL (default: core.DefaultOptions()).
	PHFTL *core.Options
}

// Build constructs a scheme over the geometry: it picks the scheme's
// separator and victim policy, builds the one FTL over the spec's device and
// attaches PHFTL's metadata store to it.
func Build(scheme Scheme, geo nand.Geometry, spec *Spec) (*Instance, error) {
	var s Spec
	if spec != nil {
		s = *spec
	}
	cfg := ftl.DefaultConfig(geo)
	if s.OP > 0 {
		cfg.OPRatio = s.OP
	}
	var (
		sep      ftl.Separator
		p        *core.PHFTL
		adjusted ftl.VictimPolicy // PHFTL's Adjusted Greedy, nil for baselines
	)
	switch scheme {
	case SchemePHFTL:
		opts := core.DefaultOptions()
		if s.PHFTL != nil {
			opts = *s.PHFTL
		}
		var err error
		if p, adjusted, err = core.NewForFTL(&cfg, opts); err != nil {
			return nil, err
		}
		sep = p
	case SchemeBase:
		sep = ftl.NewBaseSeparator()
	case Scheme2R:
		sep = tworegion.New()
	case SchemeSepBIT:
		sep = sepbit.New(cfg.ExportedPages())
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", scheme)
	}
	policy := adjusted
	switch s.Policy {
	case "":
		if policy == nil {
			policy = ftl.CostBenefitPolicy{}
		}
	case "adjusted":
		if policy == nil {
			return nil, fmt.Errorf("sim: policy %q needs PHFTL's threshold, %s has none", s.Policy, scheme)
		}
	case "greedy":
		policy = ftl.GreedyPolicy{}
	case "costbenefit":
		policy = ftl.CostBenefitPolicy{}
	default:
		return nil, fmt.Errorf("sim: unknown policy %q", s.Policy)
	}
	dev := s.Device
	if dev == nil {
		var err error
		if dev, err = nand.NewDevice(geo); err != nil {
			return nil, err
		}
	} else {
		// An injected device means a timing model is watching.
		cfg.CountHostReads = true
	}
	f, err := ftl.NewWithDevice(cfg, dev, sep, policy)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.Attach(f)
	}
	return &Instance{Scheme: scheme, FTL: f, PHFTL: p}, nil
}

// replayOp drives one page-level operation through the instance. Unmapped
// reads are ignored (hosts read zeroes); trims route to FTL.Trim, which
// no-ops on unmapped pages.
func (in *Instance) replayOp(op trace.PageOp, exported int) error {
	lpn := nand.LPN(op.LPN % uint32(exported))
	switch {
	case op.Write:
		if err := in.FTL.Write(ftl.UserWrite{LPN: lpn, ReqPages: op.ReqPages, Seq: op.Seq}); err != nil {
			return err
		}
		if in.Obs != nil {
			in.Obs.Sampler.Tick(in.FTL.Clock())
		}
	case op.Trim:
		if err := in.FTL.Trim(lpn); err != nil {
			return err
		}
	default:
		if err := in.FTL.Read(lpn, op.ReqPages); err != nil && err != ftl.ErrUnmapped {
			return err
		}
	}
	return nil
}

// Replay drives page-level operations through the instance.
func (in *Instance) Replay(ops []trace.PageOp) error {
	exported := in.FTL.ExportedPages()
	for _, op := range ops {
		if err := in.replayOp(op, exported); err != nil {
			return err
		}
	}
	return in.schemeErr()
}

// schemeErr is the first error PHFTL hit on the data path, where the
// Separator interface cannot return one.
func (in *Instance) schemeErr() error {
	if in.PHFTL == nil {
		return nil
	}
	return in.PHFTL.Err()
}

// ReplayStream drives a record stream through the instance in constant
// memory: each record is expanded and replayed before the next is pulled, so
// multi-GB trace files never materialize as a slice. pageSize is the replay
// page size (records are byte-addressed); drivePages for LPN wrapping is the
// profile-independent exported capacity of the instance itself.
func (in *Instance) ReplayStream(src trace.RecordSource, pageSize int) error {
	return in.replay(src, trace.NewExpander(pageSize, in.FTL.ExportedPages()))
}

// replay is the one record loop behind ReplayStream and RunOnCtx: pull a
// record, expand it, replay its page ops, until the source reports io.EOF.
// A source or replay error is returned as is.
func (in *Instance) replay(src trace.RecordSource, e *trace.Expander) error {
	exported := in.FTL.ExportedPages()
	yield := func(op trace.PageOp) error { return in.replayOp(op, exported) }
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return in.schemeErr()
		}
		if err != nil {
			return err
		}
		if err := e.Expand(rec, yield); err != nil {
			return err
		}
	}
}

// Finish resolves outstanding classifier predictions and takes the final
// observation sample.
func (in *Instance) Finish() {
	if in.PHFTL != nil {
		in.PHFTL.Finish(in.FTL.Clock())
	}
	if in.Obs != nil {
		in.Obs.Finish(in.FTL.Clock())
	}
}

// Result is the outcome of one (profile, scheme) run.
type Result struct {
	Profile   string
	Scheme    Scheme
	WA        float64
	DataWA    float64
	FTLStats  ftl.Stats
	Confusion *metrics.Confusion // nil for baselines
	MetaStats core.MetaStats     // zero for baselines
	Threshold float64
}

// Result reads the instance's measurements, labelled with the profile (or
// trace file) that was replayed. Call Finish first so the confusion matrix
// includes the predictions still outstanding at the end of the run.
func (in *Instance) Result(profile string) Result {
	st := in.FTL.Stats()
	res := Result{Profile: profile, Scheme: in.Scheme, WA: st.WA(), DataWA: st.DataWA(), FTLStats: st}
	if in.PHFTL != nil {
		res.Confusion = in.PHFTL.Confusion()
		res.MetaStats = in.PHFTL.MetaStats()
		res.Threshold = in.PHFTL.Threshold()
	}
	return res
}

// RunProfile replays driveWrites full-drive writes of the profile's
// synthetic trace under the scheme and returns the measurements. opts
// customizes PHFTL (nil = defaults).
func RunProfile(p workload.Profile, scheme Scheme, driveWrites int, opts *core.Options) (Result, error) {
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	in, err := Build(scheme, geo, &Spec{PHFTL: opts})
	if err != nil {
		return Result{}, err
	}
	return RunOn(in, p, driveWrites)
}

// RunOn replays the profile on an existing instance. The generator's records
// are expanded and replayed one at a time, so a run's memory footprint is
// independent of driveWrites.
func RunOn(in *Instance, p workload.Profile, driveWrites int) (Result, error) {
	return RunOnCtx(context.Background(), in, p, driveWrites)
}

// RunOnCtx is RunOn with cooperative cancellation: the context is checked
// between trace records (a record expands to a bounded burst of page ops, so
// cancellation latency is one record's expansion plus any GC it triggers). A
// cancelled run returns the context's error wrapped in the usual run
// annotation — test with errors.Is(err, context.Canceled) — and leaves the
// instance mid-replay; discard it rather than reusing it.
func RunOnCtx(ctx context.Context, in *Instance, p workload.Profile, driveWrites int) (Result, error) {
	src := &profileSource{ctx: ctx, gen: p.NewGenerator(), target: driveWrites * p.ExportedPages}
	// The expander wraps LPNs at the profile's size; replayOp wraps again at
	// the instance's, which an OP-sweep geometry can make smaller.
	if err := in.replay(src, trace.NewExpander(p.PageSize, p.ExportedPages)); err != nil {
		return Result{}, fmt.Errorf("sim: %s on %s: %w", in.Scheme, p.ID, err)
	}
	in.Finish()
	return in.Result(p.ID), nil
}

// profileSource adapts a profile's generator to trace.RecordSource: it ends
// once the generator has emitted target page writes and fails with the
// context's error once ctx is cancelled.
type profileSource struct {
	ctx    context.Context
	gen    *workload.Generator
	target int
}

func (s *profileSource) Next() (trace.Record, error) {
	if s.gen.PageWrites() >= s.target {
		return trace.Record{}, io.EOF
	}
	if err := s.ctx.Err(); err != nil {
		return trace.Record{}, err
	}
	return s.gen.Next(), nil
}
