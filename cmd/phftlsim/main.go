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
// Both forms run through the same executor (runner.Exec); a -csv file is
// streamed record by record, so its size does not bound the replay's memory.
//
// Observability (see README "Observability & profiling"):
//
//	phftlsim -trace "#52" -telemetry out.jsonl -report
//	phftlsim -trace "#144" -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// summarizingSource passes a record stream through while accumulating its
// statistics, so a trace file is summarized by the same pass that replays it.
type summarizingSource struct {
	src   trace.RecordSource
	stats trace.Stats
}

func (s *summarizingSource) Next() (trace.Record, error) {
	rec, err := s.src.Next()
	if err == nil {
		s.stats.Add(rec)
	}
	return rec, err
}

func main() {
	traceID := flag.String("trace", "", "synthetic profile ID (e.g. #52)")
	csvPath := flag.String("csv", "", "external CSV trace file, streamed in constant memory")
	pages := flag.Int("pages", 16384, "drive size in pages for -csv traces")
	pageSize := flag.Int("pagesize", 16384, "page size in bytes for -csv traces")
	schemeFlag := flag.String("scheme", "PHFTL", "Base, 2R, SepBIT or PHFTL")
	driveWrites := flag.Int("dw", 20, "drive writes to replay (synthetic profiles)")
	telemetryCSV := flag.String("telemetry-csv", "", "also write the sample time series as CSV to this file")
	sampleEvery := flag.Uint64("sample-every", 0, "sampling interval in user-page writes (0 = exported/64)")
	report := flag.Bool("report", false, "print the observability report after the run")
	var tf runner.TelemetryFlags
	tf.Register(flag.CommandLine, "write trace events and samples as JSONL to this file")
	flag.Parse()

	// Validate the whole command line before opening a sink or a trace.
	if (*traceID == "") == (*csvPath == "") {
		fmt.Fprintln(os.Stderr, "give exactly one of -trace and -csv")
		flag.Usage()
		os.Exit(2)
	}
	schemes, err := runner.ParseSchemes(*schemeFlag)
	if err == nil && len(schemes) != 1 {
		err = fmt.Errorf("-scheme takes exactly one scheme, got %q", *schemeFlag)
	}
	if err != nil {
		fatal(err)
	}
	job := runner.Job{Cell: runner.Cell{Scheme: schemes[0]}, SampleEvery: *sampleEvery}
	var csvSrc *summarizingSource // the -csv stream; nil for -trace
	if *traceID != "" {
		p, ok := workload.ProfileByID(*traceID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown trace %q (have %d synthetic profiles)\n", *traceID, len(workload.Profiles()))
			os.Exit(1)
		}
		job.Profile, job.DriveWrites = p, *driveWrites
		job.TargetOps = uint64(*driveWrites) * uint64(p.ExportedPages)
		fmt.Printf("trace %s (%s, %d pages x %d B), scheme %s, %d drive writes\n",
			p.ID, p.DriveClass, p.ExportedPages, p.PageSize, job.Scheme, *driveWrites)
	} else {
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close() // read-only
		csvSrc = &summarizingSource{src: trace.NewReader(f)}
		job.Source = csvSrc
		// The page-write total is only known once the stream ends, so the
		// live cell registers with an unknown target (no ETA, progress live).
		job.Profile = workload.Profile{ID: *csvPath, ExportedPages: *pages, PageSize: *pageSize}
	}
	job.Trace = job.Profile.ID

	// Open the sinks before the (possibly minutes-long) replay so a bad
	// path fails now, not after the run.
	tel, err := tf.Start()
	if err != nil {
		fatal(err)
	}
	var telemetryCSVF *os.File
	if *telemetryCSV != "" {
		if telemetryCSVF, err = os.Create(*telemetryCSV); err != nil {
			fatal(err)
		}
	}
	job.Sink = tel.Sink != nil || telemetryCSVF != nil || *report
	if tel.Registry != nil {
		job.Live = tel.Registry.OpenCell(job.RunTag(), registry.CellMeta{
			Trace: job.Trace, Scheme: string(job.Scheme), TargetOps: job.TargetOps,
		})
		job.Live.SetState(registry.StateRunning)
	}

	in, out, err := runner.Exec(context.Background(), job)
	if err != nil {
		fatal(err)
	}
	if job.Live != nil {
		job.Live.SetState(registry.StateDone)
	}
	if csvSrc != nil {
		st := csvSrc.stats
		fmt.Printf("csv trace %s: %d writes (%d MB), %d reads, %d trims, scheme %s\n",
			*csvPath, st.Writes, st.WriteBytes>>20, st.Reads, st.Trims, job.Scheme)
	}
	fmt.Printf("\n%s", runner.Summary(out.Result, in.FTL.Wear(), in.FTL.LifetimeWrites(3000)))

	o := in.Obs // non-nil whenever a sink, the report or -listen asked for it
	if o != nil && o.Rec.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "warning: bounded event rings overwrote %d of %d events (total bounded capacity %d): only the 1/16-sampled meta-cache kinds are bounded, rare kinds are lossless and per-kind counters stay exact\n",
			o.Rec.Dropped(), o.Rec.Total(), o.Rec.Capacity())
	}
	if tel.Sink != nil {
		if err := obs.WriteJSONL(tel.Sink, "", out.Events, out.Samples); err != nil {
			fatal(err)
		}
	}
	if err := tel.Close(); err != nil {
		fatal(err)
	}
	if tel.Sink != nil {
		fmt.Printf("\nwrote %s (%d events, %d dropped, %d samples)\n",
			tf.Path, len(out.Events), out.Dropped, len(out.Samples))
	}
	if telemetryCSVF != nil {
		if err := obs.WriteSamplesCSV(telemetryCSVF, out.Samples); err != nil {
			fatal(err)
		}
		if err := telemetryCSVF.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *telemetryCSV)
	}
	if *report {
		fmt.Printf("\n%s", obs.BuildReport(o.Rec, out.Samples))
		if o.Wear != nil && o.Wear.Total() > 0 {
			fmt.Printf("\n%s", o.Wear.Heatmap(48))
		}
	}
}
