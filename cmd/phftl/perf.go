package main

import (
	"flag"
	"fmt"

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
	if name, ok := map[sim.Scheme]string{sim.SchemeBase: "Stock", sim.SchemePHFTL: "PHFTL-hw"}[s]; ok {
		return name
	}
	return string(s)
}

// perfFlags is `phftl perf`: Figure 7, the impact of WA reduction on
// end-to-end I/O performance, replaying the paper's two representative
// 500 GB-class traces (#52, lowest WA; #144, highest WA) on the timing
// model. Phase 1 stress-loads the trace with 32 closed-loop workers and
// reports per-drive-write bandwidth; phase 2 replays a timed tail open-loop
// and reports the write-latency distribution.
//
//	phftl perf [-dw 10] [-traces "#52,#144"] [-schemes "Base,PHFTL"] [-pages 8192] [-parallel 4]
//	phftl perf -traces "#144" -telemetry out.jsonl -exectrace run.trace
func perfFlags(fs *flag.FlagSet) func() error {
	driveWrites := fs.Int("dw", 10, "drive writes in phase 1 (paper: ~19, then 1 timed)")
	tracesFlag := fs.String("traces", "#52,#144", "trace IDs to replay")
	schemesFlag := fs.String("schemes", "Base,PHFTL", "comma-separated schemes to compare")
	parallel := fs.Int("parallel", 0, "trace×scheme cells to run concurrently (0 = GOMAXPROCS)")
	pagesOverride := fs.Int("pages", 8192, "override drive size in pages (0 = profile default); timing replay is slower than WA-only replay")
	iaPerPage := fs.Float64("iapp", 700, "phase-2 mean inter-arrival per written page, µs")
	var tf runner.TelemetryFlags
	tf.Register(fs, "write per-run trace events and samples as JSONL to this file (lines tagged trace/scheme)")
	return func() error {
		sw, err := newSweep(*tracesFlag, *schemesFlag, &tf)
		if err != nil {
			return err
		}
		// Adjust every profile up front: apply the size override and scale
		// the open-loop arrival rate to the profile's mean request size so
		// every trace presents the same page rate in phase 2.
		for i, p := range sw.profiles {
			if *pagesOverride > 0 {
				p.ExportedPages = *pagesOverride
			}
			probe := p.NewGenerator()
			writeReqs := 0
			for _, r := range probe.Records(4096) {
				if r.Op == trace.OpWrite {
					writeReqs++
				}
			}
			avgPages := float64(probe.PageWrites()) / float64(writeReqs)
			p.InterArrivalUS = *iaPerPage * avgPages
			sw.profiles[i] = p
		}
		return sw.fig7(*driveWrites, *parallel)
	}
}

// fig7 runs and prints Figure 7.
func (sw *sweep) fig7(driveWrites, parallel int) error {
	sink := sw.tel.Sink != nil
	// Phase 1 load plus the phase 2 timed tail, in pages.
	target := func(p workload.Profile) uint64 {
		return uint64(driveWrites)*uint64(p.ExportedPages) + uint64(p.ExportedPages/2)
	}
	outs, runErr := sw.run(parallel, nil, target, func(c runner.Cell, p workload.Profile) (runner.Output, error) {
		geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
		m, err := perfsim.NewMachine(c.Scheme, geo, perfsim.DefaultTiming())
		if err != nil {
			return runner.Output{}, err
		}
		o := runner.Observe(m.In, sw.tel.Cell(c), 0, sink)
		if o != nil {
			m.Observe(o)
		}
		gen := p.NewGenerator()
		bw, err := m.RunPhase1(gen.Records(driveWrites*p.ExportedPages), p.PageSize, 32)
		if err != nil {
			return runner.Output{}, err
		}
		stats, err := m.RunPhase2(gen.Records(p.ExportedPages/2), p.PageSize)
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
	})

	k := len(sw.schemes)
	for i, p := range sw.profiles {
		fmt.Printf("=== trace %s (%s, %d pages) ===\n", p.ID, p.DriveClass, p.ExportedPages)
		results := map[sim.Scheme]phaseOut{}
		var okSchemes []sim.Scheme
		for _, out := range outs[i*k : (i+1)*k] {
			if out.Err != nil {
				fmt.Printf("  %s: failed (see stderr)\n", displayName(out.Cell.Scheme))
				continue
			}
			results[out.Cell.Scheme] = out.Extra.(phaseOut)
			okSchemes = append(okSchemes, out.Cell.Scheme)
		}
		if len(okSchemes) == 0 {
			continue
		}
		base, baseOK := results[sim.SchemeBase]
		phftl, phftlOK := results[sim.SchemePHFTL]

		fmt.Println("phase 1: bandwidth per drive write (MB/s)")
		fmt.Printf("  %-8s", "dw")
		n := len(results[okSchemes[0]].bw)
		for _, s := range okSchemes[1:] {
			n = min(n, len(results[s].bw))
		}
		for i := 0; i < n; i++ {
			fmt.Printf(" %6d", i+1)
		}
		fmt.Println()
		for _, s := range okSchemes {
			fmt.Printf("  %-8s", displayName(s))
			for _, pt := range results[s].bw[:n] {
				fmt.Printf(" %6.1f", pt.MBPerSec)
			}
			fmt.Println()
		}
		// n == 0 when phase 1 was too short for one full drive write.
		if baseOK && phftlOK && n > 0 {
			fmt.Printf("  last drive write: PHFTL-hw %+.1f%% vs stock\n", (phftl.bw[n-1].MBPerSec/base.bw[n-1].MBPerSec-1)*100)
		}

		fmt.Println("phase 2: write latency (ms)")
		fmt.Printf("  %-8s %8s %8s %8s %8s %8s %8s\n", "", "P50", "P90", "P99", "P99.5", "P99.9", "Avg")
		for _, s := range okSchemes {
			st := results[s].stats
			fmt.Printf("  %-8s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				displayName(s), st.P50, st.P90, st.P99, st.P995, st.P999, st.Avg)
		}
		if baseOK && phftlOK {
			fmt.Printf("  average latency: PHFTL-hw %+.1f%% vs stock\n", (phftl.stats.Avg/base.stats.Avg-1)*100)
		}
		fmt.Println()
	}
	if err := sw.finish("", ""); err != nil {
		return err
	}
	return runErr
}
