package ftl

import (
	"math"
	"sort"
)

// WearReport summarizes device wear, the quantity write amplification
// ultimately costs (§I: WA "consumes extra P/E cycles and accelerates device
// wear out"). Erase counts are per block.
type WearReport struct {
	TotalErases  uint64
	MaxErases    int
	MinErases    int
	MeanErases   float64
	StdDevErases float64
	// P99Erases is the 99th-percentile per-block erase count.
	P99Erases int
	// ImbalanceRatio is Max/Mean (1.0 = perfectly even wear); log-structured
	// allocation with round-robin superblocks keeps it low without a
	// dedicated wear-leveler.
	ImbalanceRatio float64
	// PerDie is each die's total erase count, indexed by die. Superblock
	// erases touch every die once, so the entries are equal unless block
	// erases bypassed superblock addressing; the sum always equals
	// TotalErases.
	PerDie []uint64
}

// Wear scans the device and returns the erase-count distribution.
func (f *FTL) Wear() WearReport {
	geo := f.cfg.Geometry
	counts := make([]int, 0, geo.TotalBlocks())
	perDie := make([]uint64, geo.Dies)
	var total uint64
	for die := 0; die < geo.Dies; die++ {
		for blk := 0; blk < geo.BlocksPerDie; blk++ {
			c, err := f.dev.EraseCount(die, blk)
			if err != nil {
				continue
			}
			counts = append(counts, c)
			perDie[die] += uint64(c)
			total += uint64(c)
		}
	}
	if len(counts) == 0 {
		return WearReport{}
	}
	sort.Ints(counts)
	mean := float64(total) / float64(len(counts))
	varSum := 0.0
	for _, c := range counts {
		d := float64(c) - mean
		varSum += d * d
	}
	rep := WearReport{
		TotalErases: total,
		PerDie:      perDie,
		MinErases:   counts[0],
		MaxErases:   counts[len(counts)-1],
		MeanErases:  mean,
		P99Erases:   counts[len(counts)*99/100],
	}
	rep.StdDevErases = math.Sqrt(varSum / float64(len(counts)))
	if mean > 0 {
		rep.ImbalanceRatio = float64(rep.MaxErases) / mean
	}
	return rep
}

// LifetimeWrites estimates how many user page writes the drive can absorb
// before any block reaches enduranceCycles erases, extrapolating linearly
// from the observed wear distribution. Returns 0 before any erase happened.
func (f *FTL) LifetimeWrites(enduranceCycles int) uint64 {
	maxErases := f.dev.MaxEraseCount()
	if maxErases == 0 || f.stats.UserPageWrites == 0 {
		return 0
	}
	return f.stats.UserPageWrites * uint64(enduranceCycles) / uint64(maxErases)
}
