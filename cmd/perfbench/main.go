// Command perfbench regenerates Figure 7: the impact of WA reduction on
// end-to-end I/O performance, replaying the paper's two representative
// 500 GB-class traces (#52, lowest WA; #144, highest WA) on the timing
// model. Phase 1 stress-loads the trace with 32 closed-loop workers and
// reports per-drive-write bandwidth; phase 2 replays a timed tail open-loop
// and reports the write-latency distribution.
//
// The trace×scheme cells run on a worker pool (-parallel, default
// GOMAXPROCS); outputs are re-serialized in input order so stdout and the
// merged telemetry are byte-identical at any parallelism.
//
// Usage:
//
//	perfbench [-dw 10] [-traces "#52,#144"] [-schemes "Base,PHFTL"] [-pages 8192] [-parallel 4]
//	perfbench -traces "#144" -telemetry out.jsonl -exectrace run.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/perfsim"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// phaseOut is one cell's timing-model payload, carried through the runner
// as Output.Extra.
type phaseOut struct {
	bw    []perfsim.BandwidthPoint
	stats perfsim.LatencyStats
}

// displayName maps schemes to Figure 7's row labels.
func displayName(s sim.Scheme) string {
	switch s {
	case sim.SchemeBase:
		return "Stock"
	case sim.SchemePHFTL:
		return "PHFTL-hw"
	default:
		return string(s)
	}
}

func main() {
	driveWrites := flag.Int("dw", 10, "drive writes in phase 1 (paper: ~19, then 1 timed)")
	tracesFlag := flag.String("traces", "#52,#144", "trace IDs to replay")
	schemesFlag := flag.String("schemes", "Base,PHFTL", "comma-separated schemes to compare")
	parallel := flag.Int("parallel", 0, "trace×scheme cells to run concurrently (0 = GOMAXPROCS)")
	pagesOverride := flag.Int("pages", 8192, "override drive size in pages (0 = profile default); timing replay is slower than WA-only replay")
	iaPerPage := flag.Float64("iapp", 700, "phase-2 mean inter-arrival per written page, µs")
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

	tel, err := tf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Adjust every profile up front: apply the size override and scale the
	// open-loop arrival rate to the profile's mean request size so every
	// trace presents the same page rate in phase 2.
	byID := make(map[string]workload.Profile, len(profiles))
	for i, p := range profiles {
		if *pagesOverride > 0 {
			p.ExportedPages = *pagesOverride
		}
		probe := p.NewGenerator()
		sample := probe.Records(4096)
		writeReqs := 0
		for _, r := range sample {
			if r.Op == trace.OpWrite {
				writeReqs++
			}
		}
		avgPages := float64(probe.PageWrites()) / float64(writeReqs)
		p.InterArrivalUS = *iaPerPage * avgPages
		profiles[i] = p
		byID[p.ID] = p
	}

	cells := make([]runner.Cell, 0, len(profiles)*len(schemes))
	for _, p := range profiles {
		for _, s := range schemes {
			cells = append(cells, runner.Cell{
				Trace: p.ID, Scheme: s,
				// Phase 1 load plus the phase 2 timed tail, in pages.
				TargetOps: uint64(*driveWrites)*uint64(p.ExportedPages) + uint64(p.ExportedPages/2),
			})
		}
	}
	sink := tel.Sink != nil
	run := func(c runner.Cell) (runner.Output, error) {
		p := byID[c.Trace]
		geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
		m, err := perfsim.NewMachine(c.Scheme, geo, perfsim.DefaultTiming())
		if err != nil {
			return runner.Output{}, err
		}
		o := runner.Observe(m.In, tel.Cell(c), 0, sink)
		if o != nil {
			m.Observe(o)
		}
		gen := p.NewGenerator()
		load := gen.Records(*driveWrites * p.ExportedPages)
		bw, err := m.RunPhase1(load, p.PageSize, 32)
		if err != nil {
			return runner.Output{}, err
		}
		tail := gen.Records(p.ExportedPages / 2)
		stats, err := m.RunPhase2(tail, p.PageSize)
		if err != nil {
			return runner.Output{}, err
		}
		out := runner.Output{Extra: phaseOut{bw: bw, stats: stats}}
		if o != nil {
			o.Finish(m.In.FTL.Clock())
		}
		if sink {
			out.Collect(m.In)
		}
		return out, nil
	}
	outs, runErr := runner.Run(cells, run, tel.Options(*parallel))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	runner.WarnDropped(os.Stderr, outs)

	for i, p := range profiles {
		fmt.Printf("=== trace %s (%s, %d pages) ===\n", p.ID, p.DriveClass, p.ExportedPages)
		results := map[sim.Scheme]phaseOut{}
		okSchemes := make([]sim.Scheme, 0, len(schemes))
		for j, s := range schemes {
			out := outs[i*len(schemes)+j]
			if out.Err != nil {
				fmt.Printf("  %s: failed (see stderr)\n", displayName(s))
				continue
			}
			results[s] = out.Extra.(phaseOut)
			okSchemes = append(okSchemes, s)
		}
		if len(okSchemes) == 0 {
			continue
		}

		fmt.Println("phase 1: bandwidth per drive write (MB/s)")
		fmt.Printf("  %-8s", "dw")
		n := len(results[okSchemes[0]].bw)
		for _, s := range okSchemes[1:] {
			if m := len(results[s].bw); m < n {
				n = m
			}
		}
		for i := 0; i < n; i++ {
			fmt.Printf(" %6d", i+1)
		}
		fmt.Println()
		for _, s := range okSchemes {
			fmt.Printf("  %-8s", displayName(s))
			for i := 0; i < n; i++ {
				fmt.Printf(" %6.1f", results[s].bw[i].MBPerSec)
			}
			fmt.Println()
		}
		baseOK := false
		phftlOK := false
		for _, s := range okSchemes {
			baseOK = baseOK || s == sim.SchemeBase
			phftlOK = phftlOK || s == sim.SchemePHFTL
		}
		// n == 0 when phase 1 was too short for one full drive write.
		if baseOK && phftlOK && n > 0 {
			sb := results[sim.SchemeBase].bw[n-1].MBPerSec
			pb := results[sim.SchemePHFTL].bw[n-1].MBPerSec
			fmt.Printf("  last drive write: PHFTL-hw %+.1f%% vs stock\n", (pb/sb-1)*100)
		}

		fmt.Println("phase 2: write latency (ms)")
		fmt.Printf("  %-8s %8s %8s %8s %8s %8s %8s\n", "", "P50", "P90", "P99", "P99.5", "P99.9", "Avg")
		for _, s := range okSchemes {
			st := results[s].stats
			fmt.Printf("  %-8s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				displayName(s), st.P50, st.P90, st.P99, st.P995, st.P999, st.Avg)
		}
		if baseOK && phftlOK {
			sa := results[sim.SchemeBase].stats.Avg
			pa := results[sim.SchemePHFTL].stats.Avg
			fmt.Printf("  average latency: PHFTL-hw %+.1f%% vs stock\n\n", (pa/sa-1)*100)
		} else {
			fmt.Println()
		}
	}
	if err := tel.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tel.Sink != nil {
		fmt.Printf("wrote %s\n", tf.Path)
	}
	if runErr != nil {
		os.Exit(1)
	}
}
