package ftl

import (
	"math"

	"github.com/phftl/phftl/internal/nand"
)

// GeometryFor sizes a device geometry that exports at least exportedPages of
// logical capacity under the given over-provisioning ratio, meta-page
// reservation, and GC reserve for a scheme with numStreams streams. It is
// the sizing helper the benchmark harnesses use to build scaled-down drives
// that keep the paper's capacity ratios.
//
// targetSBs steers the superblock count (GC granularity): more superblocks
// mean finer-grained GC. The result always satisfies ftl.New's spare-
// superblock requirement, growing the superblock count beyond targetSBs when
// the OP fraction alone cannot fund the GC reserve.
func GeometryFor(exportedPages int, opRatio float64, metaPagesPerSB, numStreams, dies, targetSBs, pageSize, oobSize int) nand.Geometry {
	if targetSBs < 2*(numStreams+2) {
		targetSBs = 2 * (numStreams + 2)
	}
	needData := float64(exportedPages) * (1 + opRatio)
	pagesPerBlock := int(math.Ceil(needData/float64(dies*targetSBs))) + metaPagesPerSB/dies
	if pagesPerBlock < 4 {
		pagesPerBlock = 4
	}
	dataPerSB := dies*pagesPerBlock - metaPagesPerSB
	for dataPerSB < 1 {
		pagesPerBlock++
		dataPerSB = dies*pagesPerBlock - metaPagesPerSB
	}
	// Grow the superblock count from the target; the loop's config is the
	// one the FTL will derive the exported capacity from.
	cfg := Config{
		Geometry: nand.Geometry{
			PageSize:      pageSize,
			OOBSize:       oobSize,
			PagesPerBlock: pagesPerBlock,
			BlocksPerDie:  targetSBs,
			Dies:          dies,
		},
		OPRatio:        opRatio,
		MetaPagesPerSB: metaPagesPerSB,
	}
	// Cap growth: when opRatio cannot fund the 5% watermark reserve at any
	// size, stop and let ftl.New report the configuration error.
	for maxSBs := targetSBs*100 + 1000; cfg.Geometry.BlocksPerDie < maxSBs; cfg.Geometry.BlocksPerDie++ {
		exported := cfg.ExportedPages()
		// Spare must cover the GC floor (streams+1), the open superblocks'
		// transient unfilled slots (~streams), and a few superblocks of
		// aging garbage — otherwise GC is forced to harvest half-dead
		// victims and WA explodes regardless of placement quality.
		liveSBs := (exported + dataPerSB - 1) / dataPerSB
		spare := cfg.Geometry.BlocksPerDie - liveSBs
		if exported >= exportedPages && spare >= 2*numStreams+5 {
			break
		}
	}
	return cfg.Geometry
}
