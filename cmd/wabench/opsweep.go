package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

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

// opSweepCSVHeader heads the -csv output in sweep mode.
const opSweepCSVHeader = "trace,scheme,op,spare_eff,wa,data_wa,user_writes,gc_writes\n"

// runOPSweep replays every trace×scheme cell once per overprovisioning ratio
// and prints WA vs OP per scheme, next to the closed-form prediction for the
// Base scheme (Frankie et al.'s TRIM/overprovisioning analysis; the
// uniform-random greedy approximation (1−Sf)/(2·Sf), stated in this repo's
// extra-flash-writes-per-user-write WA convention). Returns the process exit
// code.
func runOPSweep(profiles []workload.Profile, schemes []sim.Scheme, ops []float64,
	driveWrites, parallel, cellWorkers int, csvPath string, tel runner.Telemetry) int {
	byID := make(map[string]workload.Profile, len(profiles))
	cells := make([]runner.Cell, 0, len(profiles)*len(ops)*len(schemes))
	for _, p := range profiles {
		byID[p.ID] = p
		for _, op := range ops {
			for _, s := range schemes {
				cells = append(cells, runner.Cell{
					Trace: p.ID, Scheme: s, OP: op,
					TargetOps: uint64(driveWrites) * uint64(p.ExportedPages),
				})
			}
		}
	}
	run := func(c runner.Cell) (runner.Output, error) {
		p := byID[c.Trace]
		in, out, err := runner.Exec(context.Background(), runner.Job{
			Cell: c, Profile: p, DriveWrites: driveWrites,
			Workers: cellWorkers, Live: tel.Cell(c), Sink: tel.Sink != nil,
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
	}
	outs, runErr := runner.Run(cells, run, tel.Options(parallel))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	runner.WarnDropped(os.Stderr, outs)

	fmt.Printf("OP sweep: write amplification vs overprovisioning, %d drive writes per trace\n", driveWrites)
	fmt.Println("pred(Base) is the uniform-random greedy closed form (1-Sf)/(2Sf) at the")
	fmt.Println("effective spare factor Sf (repo WA convention: extra flash writes per user write).")
	var csv strings.Builder
	csv.WriteString(opSweepCSVHeader)
	idx := 0
	for _, p := range profiles {
		fmt.Printf("trace %s (%s)\n", p.ID, p.DriveClass)
		fmt.Printf("  %6s %7s", "op", "spare")
		for _, s := range schemes {
			fmt.Printf(" %9s", s)
		}
		fmt.Printf(" %11s\n", "pred(Base)")
		for _, op := range ops {
			var info opCellInfo
			row := make([]string, 0, len(schemes))
			for _, s := range schemes {
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
	if csvPath != "" {
		if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if runErr != nil {
		return 1
	}
	return 0
}
