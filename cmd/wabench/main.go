// Command wabench regenerates Figure 5: overall write amplification of
// Base, 2R, SepBIT and PHFTL across the 20 (synthetic stand-ins for the)
// Alibaba Cloud drive traces, plus the normalized average, and reports the
// metadata-cache hit rates the paper quotes in §V-B.
//
// The trace×scheme cells are independent single-threaded simulations; they
// run on a worker pool (-parallel, default GOMAXPROCS) and are re-serialized
// in input order, so the table, CSV and merged telemetry are byte-identical
// at any parallelism.
//
// Usage:
//
//	wabench [-dw 20] [-traces "#52,#144"] [-schemes "Base,PHFTL"] [-parallel 8] [-csv out.csv]
//	wabench -traces "#52" -telemetry out.jsonl -cpuprofile cpu.pb.gz
//	wabench -dw 2 -traces "#52,#144" -schemes "Base,PHFTL" -telemetry-csv curves
//	wabench -dw 4 -traces "#52" -op-sweep "0.07,0.15,0.28"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

func main() {
	driveWrites := flag.Int("dw", 20, "full drive writes to replay per trace (paper: 20)")
	tracesFlag := flag.String("traces", "", "comma-separated trace IDs (default: all 20)")
	schemesFlag := flag.String("schemes", "", "comma-separated schemes (default: Base,2R,SepBIT,PHFTL)")
	parallel := flag.Int("parallel", 0, "trace×scheme cells to run concurrently (0 = GOMAXPROCS); each PHFTL cell also retrains on up to min(4, GOMAXPROCS) goroutines at its window ends (GOMAXPROCS=1 is fully serial; output is byte-identical either way)")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	telemetryCSV := flag.String("telemetry-csv", "", "write each cell's sample time series as <trace>_<scheme>.csv into this directory (created if missing); make golden-check diffs this format byte for byte against testdata/golden")
	opSweep := flag.String("op-sweep", "", "comma-separated overprovisioning ratios (e.g. \"0.07,0.15,0.28\"): replay each trace×scheme cell once per ratio and report WA vs OP instead of the Figure 5 table")
	var tf runner.TelemetryFlags
	tf.Register(flag.CommandLine, "write per-run trace events and samples as JSONL to this file (lines tagged trace/scheme)")
	flag.Parse()

	profiles, err := runner.ParseTraces(*tracesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	schemes, err := runner.ParseSchemes(*schemesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hasPHFTL := false
	for _, s := range schemes {
		if s == sim.SchemePHFTL {
			hasPHFTL = true
		}
	}

	tel, err := tf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *telemetryCSV != "" {
		if err := os.MkdirAll(*telemetryCSV, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *opSweep != "" {
		ops, err := parseOPs(*opSweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *telemetryCSV != "" {
			fmt.Fprintln(os.Stderr, "-telemetry-csv is not supported with -op-sweep (cell file names do not encode the OP ratio)")
			os.Exit(1)
		}
		code := runOPSweep(profiles, schemes, ops, *driveWrites, *parallel, *csvPath, tel)
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		os.Exit(code)
	}

	byID := make(map[string]workload.Profile, len(profiles))
	cells := make([]runner.Cell, 0, len(profiles)*len(schemes))
	for _, p := range profiles {
		byID[p.ID] = p
		for _, s := range schemes {
			cells = append(cells, runner.Cell{
				Trace: p.ID, Scheme: s,
				TargetOps: uint64(*driveWrites) * uint64(p.ExportedPages),
			})
		}
	}
	// File sinks need the buffered events/samples carried back through the
	// runner; the live registry needs only the Observe bridge.
	sink := tel.Sink != nil || *telemetryCSV != ""
	run := func(c runner.Cell) (runner.Output, error) {
		_, out, err := runner.Exec(context.Background(), runner.Job{
			Cell: c, Profile: byID[c.Trace], DriveWrites: *driveWrites,
			Live: tel.Cell(c), Sink: sink,
		})
		return out, err
	}
	outs, runErr := runner.Run(cells, run, tel.Options(*parallel))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	runner.WarnDropped(os.Stderr, outs)

	fmt.Printf("Figure 5: write amplification (GC data writes), %d drive writes per trace\n", *driveWrites)
	fmt.Println("note: WA columns exclude PHFTL's meta-page programs, whose share is inflated")
	fmt.Println("by the scaled-down superblocks; the 'meta' column and the CSV report them.")
	fmt.Printf("%-7s %-6s", "trace", "size")
	for _, s := range schemes {
		fmt.Printf(" %9s", s)
	}
	if hasPHFTL {
		fmt.Printf("  %s", "phftl: meta% hit-rate thr")
	}
	fmt.Println()

	var csv strings.Builder
	csv.WriteString(runner.CSVHeader)

	sums := make(map[sim.Scheme]float64)
	counts := make(map[sim.Scheme]int)
	norms := make(map[sim.Scheme]float64) // normalized to Base per trace
	normCounts := make(map[sim.Scheme]int)
	traceCount := 0
	for i, p := range profiles {
		fmt.Printf("%-7s %-6s", p.ID, p.DriveClass)
		was := make(map[sim.Scheme]float64)
		ok := make(map[sim.Scheme]bool)
		var hitRate, thr, metaFrac float64
		phftlOK := false
		for j, s := range schemes {
			out := outs[i*len(schemes)+j]
			if out.Err != nil {
				fmt.Printf(" %9s", "err")
				continue
			}
			res := out.Result
			was[s], ok[s] = res.DataWA, true
			fmt.Printf(" %8.1f%%", res.DataWA*100)
			if s == sim.SchemePHFTL {
				phftlOK = true
				hitRate = res.MetaStats.HitRate()
				thr = res.Threshold
				metaFrac = float64(res.FTLStats.MetaPageWrites) / float64(res.FTLStats.FlashPageWrites())
			}
			if err := runner.WriteCSVRow(&csv, p.DriveClass, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if phftlOK {
			fmt.Printf("   %4.2f%% %5.1f%% %7.0f", metaFrac*100, hitRate*100, thr)
		}
		fmt.Println()
		for _, s := range schemes {
			if !ok[s] {
				continue
			}
			sums[s] += was[s]
			counts[s]++
			if ok[sim.SchemeBase] && was[sim.SchemeBase] > 0 {
				norms[s] += was[s] / was[sim.SchemeBase]
				normCounts[s]++
			}
		}
		traceCount++
	}
	if traceCount > 1 {
		fmt.Printf("%-7s %-6s", "AVG", "")
		for _, s := range schemes {
			if counts[s] == 0 {
				fmt.Printf(" %9s", "-")
				continue
			}
			fmt.Printf(" %8.1f%%", sums[s]/float64(counts[s])*100)
		}
		fmt.Println()
		if counts[sim.SchemeBase] > 0 {
			fmt.Printf("%-7s %-6s", "NORM", "")
			for _, s := range schemes {
				if normCounts[s] == 0 {
					fmt.Printf(" %9s", "-")
					continue
				}
				fmt.Printf(" %9.3f", norms[s]/float64(normCounts[s]))
			}
			fmt.Println(" (normalized to Base, cf. Fig. 5 right)")
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if err := tel.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tel.Sink != nil {
		fmt.Printf("wrote %s\n", tf.Path)
	}
	if *telemetryCSV != "" {
		wrote := 0
		for _, out := range outs {
			if out.Err != nil || len(out.Samples) == 0 {
				continue
			}
			path := filepath.Join(*telemetryCSV, runner.CellCSVName(out.Cell))
			f, err := os.Create(path)
			if err == nil {
				err = obs.WriteSamplesCSV(f, out.Samples)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			wrote++
		}
		fmt.Printf("wrote %d sample CSVs to %s\n", wrote, *telemetryCSV)
	}
	if runErr != nil {
		os.Exit(1)
	}
}
