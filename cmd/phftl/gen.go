package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// genFlags is `phftl gen`: one of the synthetic drive workloads as a CSV
// block trace (native 4-field layout: timestamp_us,op,offset,size), so it
// can be inspected, archived, or replayed through `phftl sim -csv` or other
// tools.
//
//	phftl gen -trace "#52" -dw 2 > t52.csv
func genFlags(fs *flag.FlagSet) func() error {
	traceID := fs.String("trace", "#52", "synthetic profile ID")
	driveWrites := fs.Int("dw", 1, "drive writes worth of page writes to emit")
	out := fs.String("o", "", "output file (default stdout)")
	list := fs.Bool("list", false, "list available profiles and exit")
	return func() error {
		if *list {
			fmt.Printf("%-8s %-7s %10s %8s %8s %8s %8s\n", "id", "class", "pages", "hot%", "seq%", "read%", "drift")
			for _, p := range workload.Profiles() {
				drift := "-"
				if p.PhaseEvery > 0 {
					drift = fmt.Sprintf("%d", p.PhaseEvery)
				}
				fmt.Printf("%-8s %-7s %10d %8.2f %8.2f %8.2f %8s\n",
					p.ID, p.DriveClass, p.ExportedPages, p.HotFrac*100, p.SeqFrac*100, p.ReadFrac*100, drift)
			}
			return nil
		}

		p, ok := workload.ProfileByID(*traceID)
		if !ok {
			return fmt.Errorf("unknown trace %q (use -list)", *traceID)
		}
		f := os.Stdout
		if *out != "" {
			var err error
			if f, err = os.Create(*out); err != nil {
				return err
			}
			defer f.Close() // error paths; the success path checks Close
		}
		bw := bufio.NewWriter(f)
		gen := p.NewGenerator()
		records := gen.Records(*driveWrites * p.ExportedPages)
		if err := trace.WriteCSV(bw, records); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "emitted %d requests (%d page writes) for %s\n",
			len(records), gen.PageWrites(), p.ID)
		if *out != "" {
			return f.Close()
		}
		return nil
	}
}
