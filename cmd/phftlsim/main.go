// Command phftlsim runs one trace — a named synthetic profile or an
// external CSV trace (native or Alibaba layout, see internal/trace) — under
// one scheme and prints the full measurement set: WA, GC activity, and for
// PHFTL the classifier confusion, threshold and metadata-cache statistics.
//
// Usage:
//
//	phftlsim -trace "#52" [-scheme PHFTL] [-dw 20]
//	phftlsim -csv mytrace.csv -pages 16384 [-scheme SepBIT]
//
// Observability (see README "Observability & profiling"):
//
//	phftlsim -trace "#52" -telemetry out.jsonl -report
//	phftlsim -trace "#144" -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	traceID := flag.String("trace", "", "synthetic profile ID (e.g. #52)")
	csvPath := flag.String("csv", "", "external CSV trace file")
	pages := flag.Int("pages", 16384, "drive size in pages for -csv traces")
	pageSize := flag.Int("pagesize", 16384, "page size in bytes for -csv traces")
	schemeFlag := flag.String("scheme", "PHFTL", "Base, 2R, SepBIT or PHFTL")
	driveWrites := flag.Int("dw", 20, "drive writes to replay (synthetic profiles)")
	telemetryCSV := flag.String("telemetry-csv", "", "also write the sample time series as CSV to this file")
	sampleEvery := flag.Uint64("sample-every", 0, "sampling interval in user-page writes (0 = exported/64)")
	cellWorkers := flag.Int("cell-workers", 1, "goroutines retraining PHFTL's classifier at each window end, over its 4 gradient shards (1 = serial, more than 4 is 4, other schemes ignore it; results are byte-identical at any value)")
	report := flag.Bool("report", false, "print the observability report after the run")
	var tf runner.TelemetryFlags
	tf.Register(flag.CommandLine, "write trace events and samples as JSONL to this file")
	flag.Parse()

	// Open the sinks before the (possibly minutes-long) replay so a bad
	// path fails now, not after the run.
	tel, err := tf.Start()
	if err != nil {
		fatal(err)
	}
	coreOpts, reg, telemetryF, stopProf := tel.CoreOpts, tel.Registry, tel.Sink, tel.StopProf
	var telemetryCSVF *os.File
	if *telemetryCSV != "" {
		if telemetryCSVF, err = os.Create(*telemetryCSV); err != nil {
			fatal(err)
		}
	}

	observing := telemetryF != nil || *telemetryCSV != "" || *report || reg != nil
	scheme := sim.Scheme(*schemeFlag)
	// openCell registers this run as a live cell when -listen is set; a nil
	// return keeps the serial path untouched.
	openCell := func(traceName string, targetOps uint64) *registry.Cell {
		if reg == nil {
			return nil
		}
		c := reg.OpenCell(traceName+"/"+string(scheme), registry.CellMeta{
			Trace: traceName, Scheme: string(scheme), TargetOps: targetOps,
		})
		c.SetState(registry.StateRunning)
		return c
	}
	var in *sim.Instance
	var res sim.Result
	var wear ftl.WearReport
	var lifetime uint64
	switch {
	case *traceID != "":
		p, ok := workload.ProfileByID(*traceID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown trace %q (have %d synthetic profiles)\n", *traceID, len(workload.Profiles()))
			os.Exit(1)
		}
		fmt.Printf("trace %s (%s, %d pages x %d B), scheme %s, %d drive writes\n",
			p.ID, p.DriveClass, p.ExportedPages, p.PageSize, scheme, *driveWrites)
		geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
		in, err = sim.Build(scheme, geo, coreOpts)
		if err != nil {
			fatal(err)
		}
		in.SetCellWorkers(*cellWorkers)
		cell := openCell(p.ID, uint64(*driveWrites)*uint64(p.ExportedPages))
		if observing {
			sim.Observe(in, sim.ObserveConfig{SampleEvery: *sampleEvery, Cell: cell})
		}
		res, err = sim.RunOn(in, p, *driveWrites)
		if err != nil {
			fatal(err)
		}
		if cell != nil {
			cell.SetState(registry.StateDone)
		}
		wear = in.FTL.Wear()
		lifetime = in.FTL.LifetimeWrites(3000)
	case *csvPath != "":
		f, ferr := os.Open(*csvPath)
		if ferr != nil {
			fatal(ferr)
		}
		records, rerr := trace.ReadCSV(f)
		f.Close()
		if rerr != nil {
			fatal(rerr)
		}
		st := trace.Summarize(records)
		fmt.Printf("csv trace %s: %d writes (%d MB), %d reads, %d trims, scheme %s\n",
			*csvPath, st.Writes, st.WriteBytes>>20, st.Reads, st.Trims, scheme)
		geo := sim.GeometryForDrive(*pages, *pageSize)
		in, err = sim.Build(scheme, geo, coreOpts)
		if err != nil {
			fatal(err)
		}
		in.SetCellWorkers(*cellWorkers)
		// The page-op total is only known after expansion, so the CSV path
		// registers with an unknown target (no ETA, progress still live).
		cell := openCell(*csvPath, 0)
		if observing {
			sim.Observe(in, sim.ObserveConfig{SampleEvery: *sampleEvery, Cell: cell})
		}
		ops := trace.Expand(records, *pageSize, in.FTL.ExportedPages())
		if err = in.Replay(ops); err != nil {
			fatal(err)
		}
		if cell != nil {
			cell.SetState(registry.StateDone)
		}
		wear = in.FTL.Wear()
		lifetime = in.FTL.LifetimeWrites(3000)
		in.Finish()
		res = sim.Result{
			Profile: *csvPath, Scheme: scheme,
			WA: in.FTL.Stats().WA(), DataWA: in.FTL.Stats().DataWA(),
			FTLStats: in.FTL.Stats(),
		}
		if in.PHFTL != nil {
			res.Confusion = in.PHFTL.Confusion()
			res.MetaStats = in.PHFTL.MetaStats()
			res.Threshold = in.PHFTL.Threshold()
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	fmt.Printf("\n%s", runner.Summary(res, wear, lifetime))

	if o := in.Obs; o != nil {
		if d := o.Rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: bounded event rings overwrote %d of %d events (total bounded capacity %d): only the 1/16-sampled meta-cache kinds are bounded, rare kinds are lossless and per-kind counters stay exact\n",
				d, o.Rec.Total(), o.Rec.Capacity())
		}
		if telemetryF != nil {
			if err := obs.WriteJSONL(telemetryF, "", o.Rec.Events(), o.Sampler.Series()); err != nil {
				telemetryF.Close()
				fatal(err)
			}
			if err := telemetryF.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote %s (%d events, %d dropped, %d samples)\n",
				tf.Path, len(o.Rec.Events()), o.Rec.Dropped(), len(o.Sampler.Series()))
		}
		if telemetryCSVF != nil {
			if err := obs.WriteSamplesCSV(telemetryCSVF, o.Sampler.Series()); err != nil {
				telemetryCSVF.Close()
				fatal(err)
			}
			if err := telemetryCSVF.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *telemetryCSV)
		}
		if *report {
			fmt.Printf("\n%s", obs.BuildReport(o.Rec, o.Sampler.Series()))
			if o.Wear != nil && o.Wear.Total() > 0 {
				fmt.Printf("\n%s", o.Wear.Heatmap(48))
			}
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}
