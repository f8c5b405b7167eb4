package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// waFlags is `phftl wa`: Figure 5, the overall write amplification of Base,
// 2R, SepBIT and PHFTL across the 20 (synthetic stand-ins for the) Alibaba
// Cloud drive traces, plus the normalized average, and the metadata-cache
// hit rates the paper quotes in §V-B. With -op-sweep it replays each cell
// once per overprovisioning ratio instead and reports WA against OP.
//
//	phftl wa [-dw 20] [-traces "#52,#144"] [-schemes "Base,PHFTL"] [-parallel 8] [-csv out.csv]
//	phftl wa -traces "#52" -telemetry out.jsonl -cpuprofile cpu.pb.gz
//	phftl wa -dw 2 -traces "#52,#144" -schemes "Base,PHFTL" -telemetry-csv curves
//	phftl wa -dw 4 -traces "#52" -op-sweep "0.07,0.15,0.28"
func waFlags(fs *flag.FlagSet) func() error {
	driveWrites := fs.Int("dw", 20, "full drive writes to replay per trace (paper: 20)")
	tracesFlag := fs.String("traces", "", "comma-separated trace IDs (default: all 20)")
	schemesFlag := fs.String("schemes", "", "comma-separated schemes (default: Base,2R,SepBIT,PHFTL)")
	parallel := fs.Int("parallel", 0, "trace×scheme cells to run concurrently (0 = GOMAXPROCS); each PHFTL cell also retrains on up to min(4, GOMAXPROCS) goroutines at its window ends (GOMAXPROCS=1 is fully serial; output is byte-identical either way)")
	csvPath := fs.String("csv", "", "also write results as CSV to this file")
	telemetryCSV := fs.String("telemetry-csv", "", "write each cell's sample time series as <trace>_<scheme>.csv into this directory (created if missing); make golden-check diffs this format byte for byte against testdata/golden")
	opSweep := fs.String("op-sweep", "", "comma-separated overprovisioning ratios (e.g. \"0.07,0.15,0.28\"): replay each trace×scheme cell once per ratio and report WA vs OP instead of the Figure 5 table")
	var tf runner.TelemetryFlags
	tf.Register(fs, "write per-run trace events and samples as JSONL to this file (lines tagged trace/scheme)")
	return func() error {
		sw, err := newSweep(*tracesFlag, *schemesFlag, &tf)
		if err != nil {
			return err
		}
		if *telemetryCSV != "" {
			if err := os.MkdirAll(*telemetryCSV, 0o755); err != nil {
				return err
			}
		}
		if *opSweep != "" {
			ops, err := parseOPs(*opSweep)
			if err != nil {
				return err
			}
			if *telemetryCSV != "" {
				return errors.New("-telemetry-csv is not supported with -op-sweep (cell file names do not encode the OP ratio)")
			}
			return sw.opSweep(ops, *driveWrites, *parallel, *csvPath)
		}
		return sw.fig5(*driveWrites, *parallel, *csvPath, *telemetryCSV)
	}
}

// fig5 runs and prints Figure 5.
func (sw *sweep) fig5(driveWrites, parallel int, csvPath, telemetryCSV string) error {
	// File sinks need the buffered events/samples carried back through the
	// runner; the live registry needs only the Observe bridge.
	sink := sw.tel.Sink != nil || telemetryCSV != ""
	outs, runErr := sw.run(parallel, nil, drives(driveWrites), func(c runner.Cell, p workload.Profile) (runner.Output, error) {
		_, out, err := runner.Exec(context.Background(), runner.Job{
			Cell: c, Profile: p, DriveWrites: driveWrites, Live: sw.tel.Cell(c), Sink: sink,
		})
		return out, err
	})

	schemes := sw.schemes
	fmt.Printf("Figure 5: write amplification (GC data writes), %d drive writes per trace\n", driveWrites)
	fmt.Println("note: WA columns exclude PHFTL's meta-page programs, whose share is inflated")
	fmt.Println("by the scaled-down superblocks; the 'meta' column and the CSV report them.")
	fmt.Printf("%-7s %-6s", "trace", "size")
	for _, s := range schemes {
		fmt.Printf(" %9s", s)
	}
	if slices.Contains(schemes, sim.SchemePHFTL) {
		fmt.Printf("  %s", "phftl: meta% hit-rate thr")
	}
	fmt.Println()

	var csv strings.Builder
	csv.WriteString(runner.CSVHeader)
	// Per scheme column: the WA sum and count, and the sum and count of WA
	// normalized to Base on the same trace.
	sums, norms := make([]float64, len(schemes)), make([]float64, len(schemes))
	counts, normCounts := make([]int, len(schemes)), make([]int, len(schemes))
	base := slices.Index(schemes, sim.SchemeBase)
	for i, p := range sw.profiles {
		row := outs[i*len(schemes) : (i+1)*len(schemes)]
		fmt.Printf("%-7s %-6s", p.ID, p.DriveClass)
		phftl := ""
		for _, out := range row {
			if out.Err != nil {
				fmt.Printf(" %9s", "err")
				continue
			}
			res := out.Result
			fmt.Printf(" %8.1f%%", res.DataWA*100)
			if out.Cell.Scheme == sim.SchemePHFTL {
				st := res.FTLStats
				phftl = fmt.Sprintf("   %4.2f%% %5.1f%% %7.0f", float64(st.MetaPageWrites)/float64(st.FlashPageWrites())*100,
					res.MetaStats.HitRate()*100, res.Threshold)
			}
			if err := runner.WriteCSVRow(&csv, p.DriveClass, res); err != nil {
				return err
			}
		}
		fmt.Println(phftl)
		baseOK := base >= 0 && row[base].Err == nil && row[base].Result.DataWA > 0
		for j, out := range row {
			if out.Err != nil {
				continue
			}
			sums[j] += out.Result.DataWA
			counts[j]++
			if baseOK {
				norms[j] += out.Result.DataWA / row[base].Result.DataWA
				normCounts[j]++
			}
		}
	}
	if len(sw.profiles) > 1 {
		mean := func(label string, sum []float64, n []int, format string, scale float64) {
			fmt.Printf("%-7s %-6s", label, "")
			for j := range schemes {
				if n[j] == 0 {
					fmt.Printf(" %9s", "-")
					continue
				}
				fmt.Printf(format, sum[j]/float64(n[j])*scale)
			}
		}
		mean("AVG", sums, counts, " %8.1f%%", 100)
		fmt.Println()
		if base >= 0 && counts[base] > 0 {
			mean("NORM", norms, normCounts, " %9.3f", 1)
			fmt.Println(" (normalized to Base, cf. Fig. 5 right)")
		}
	}
	if err := sw.finish(csvPath, csv.String()); err != nil {
		return err
	}
	if telemetryCSV != "" {
		wrote := 0
		for _, out := range outs {
			if out.Err != nil || len(out.Samples) == 0 {
				continue
			}
			var buf bytes.Buffer
			if err := obs.WriteSamplesCSV(&buf, out.Samples); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(telemetryCSV, runner.CellCSVName(out.Cell)), buf.Bytes(), 0o644); err != nil {
				return err
			}
			wrote++
		}
		fmt.Printf("wrote %d sample CSVs to %s\n", wrote, telemetryCSV)
	}
	return runErr
}

// drives returns a sweep target of driveWrites full writes of each drive.
func drives(driveWrites int) func(workload.Profile) uint64 {
	return func(p workload.Profile) uint64 { return uint64(driveWrites) * uint64(p.ExportedPages) }
}

// parseOPs parses the -op-sweep ratio list.
func parseOPs(flagVal string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(flagVal, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -op-sweep ratio %q: %v", f, err)
		}
		if v <= 0 || v >= 1 {
			return nil, fmt.Errorf("-op-sweep ratio %v outside (0,1)", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// opCellInfo is the sweep bookkeeping each cell carries back through
// runner.Output.Extra.
type opCellInfo struct {
	spare float64 // effective spare factor of the built geometry
	pred  float64 // uniform-random greedy closed-form WA at that spare
}

// opSweep replays every trace×scheme cell once per overprovisioning ratio
// and prints WA vs OP per scheme, next to the closed-form prediction for the
// Base scheme (Frankie et al.'s TRIM/overprovisioning analysis; the
// uniform-random greedy approximation (1−Sf)/(2·Sf), stated in this repo's
// extra-flash-writes-per-user-write WA convention).
func (sw *sweep) opSweep(ops []float64, driveWrites, parallel int, csvPath string) error {
	outs, runErr := sw.run(parallel, ops, drives(driveWrites), func(c runner.Cell, p workload.Profile) (runner.Output, error) {
		in, out, err := runner.Exec(context.Background(), runner.Job{
			Cell: c, Profile: p, DriveWrites: driveWrites, Live: sw.tel.Cell(c), Sink: sw.tel.Sink != nil,
		})
		if err != nil {
			return out, err
		}
		// Effective spare factor: the share of the device's data capacity
		// not occupied by the workload's footprint. It exceeds the nominal
		// ratio because superblock sizing quantizes capacity upward.
		totalData := float64(in.FTL.Device().Geometry().Superblocks() * in.FTL.DataPagesPerSB())
		foot := p.ExportedPages
		if exp := in.FTL.ExportedPages(); exp < foot {
			foot = exp
		}
		sf := (totalData - float64(foot)) / totalData
		out.Extra = opCellInfo{spare: sf, pred: (1 - sf) / (2 * sf)}
		return out, nil
	})

	fmt.Printf("OP sweep: write amplification vs overprovisioning, %d drive writes per trace\n", driveWrites)
	fmt.Println("pred(Base) is the uniform-random greedy closed form (1-Sf)/(2Sf) at the")
	fmt.Println("effective spare factor Sf (repo WA convention: extra flash writes per user write).")
	var csv strings.Builder
	csv.WriteString("trace,scheme,op,spare_eff,wa,data_wa,user_writes,gc_writes\n")
	idx := 0
	for _, p := range sw.profiles {
		fmt.Printf("trace %s (%s)\n", p.ID, p.DriveClass)
		fmt.Printf("  %6s %7s", "op", "spare")
		for _, s := range sw.schemes {
			fmt.Printf(" %9s", s)
		}
		fmt.Printf(" %11s\n", "pred(Base)")
		for _, op := range ops {
			var info opCellInfo
			row := make([]string, 0, len(sw.schemes))
			for _, s := range sw.schemes {
				out := outs[idx]
				idx++
				if out.Err != nil {
					row = append(row, fmt.Sprintf(" %9s", "err"))
					continue
				}
				res := out.Result
				info = out.Extra.(opCellInfo)
				row = append(row, fmt.Sprintf(" %8.1f%%", res.WA*100))
				fmt.Fprintf(&csv, "%s,%s,%g,%.4f,%.4f,%.4f,%d,%d\n",
					p.ID, s, op, info.spare, res.WA, res.DataWA,
					res.FTLStats.UserPageWrites, res.FTLStats.GCPageWrites)
			}
			fmt.Printf("  %6.3f %7.4f%s %10.1f%%\n", op, info.spare, strings.Join(row, ""), info.pred*100)
		}
	}
	// Unlike fig5, the OP sweep's stdout announces only its CSV.
	if err := writeFile(csvPath, csv.String()); err != nil {
		return err
	}
	return errors.Join(runErr, sw.tel.Close())
}
