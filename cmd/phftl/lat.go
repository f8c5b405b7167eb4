package main

import (
	"flag"
	"fmt"

	"github.com/phftl/phftl/internal/perfsim"
)

// latFlags is `phftl lat`: Figure 6, average write latency (with standard
// deviation) versus request size for the stock FTL, PHFTL with prediction on
// the critical path (sync), and PHFTL with off-critical-path prediction,
// using the OpenSSD-class timing model.
//
//	phftl lat [-n 10000] [-predict 9000]
func latFlags(fs *flag.FlagSet) func() error {
	n := fs.Int("n", 10000, "requests per cell")
	predict := fs.Int64("predict", 9000, "prediction cost in ns (paper: ~9 µs)")
	seed := fs.Int64("seed", 1, "noise seed")
	return func() error {
		tm := perfsim.DefaultTiming()
		tm.PredictNS = *predict
		const pageSize = 16384

		fmt.Println("Figure 6: write latency vs request size (requests served from the RAM buffer)")
		fmt.Printf("%-18s", "placement")
		for _, sz := range perfsim.Fig6RequestSizes {
			fmt.Printf(" %10s", sizeLabel(sz))
		}
		fmt.Println()
		sums := map[perfsim.PredPlacement]float64{}
		res, k := perfsim.RunFig6(tm, pageSize, *n, *seed), len(perfsim.Fig6RequestSizes)
		for row := 0; row < len(res); row += k {
			fmt.Printf("%-18s", res[row].Placement)
			for _, r := range res[row : row+k] {
				fmt.Printf(" %6.1f±%-4.1f", r.MeanNS/1000, r.StdDevNS/1000)
				sums[r.Placement] += r.MeanNS
			}
			fmt.Println(" (µs)")
		}
		base := sums[perfsim.PredNone]
		fmt.Printf("\naverage latency inflation vs stock: sync %+.1f%%, off-path %+.1f%%\n",
			(sums[perfsim.PredSync]/base-1)*100, (sums[perfsim.PredOffPath]/base-1)*100)
		fmt.Println("(paper §V-D: sync +139.7% on average; off-path ~stock with higher stddev)")
		return nil
	}
}

func sizeLabel(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}
