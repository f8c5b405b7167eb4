package ftl

import (
	"math"
	"testing"

	"github.com/phftl/phftl/internal/nand"
)

func TestWearReportFreshDevice(t *testing.T) {
	f := newBaseFTL(t)
	dev := f.Device()
	if dev.Stats().Erases != 0 || dev.MaxEraseCount() != 0 || !math.IsNaN(dev.WearSkew()) {
		t.Errorf("fresh device wear: erases %d, max %d, skew %v",
			dev.Stats().Erases, dev.MaxEraseCount(), dev.WearSkew())
	}
	if f.LifetimeWrites(3000) != 0 {
		t.Error("lifetime estimate on fresh device should be 0")
	}
}

func TestWearAccumulatesAndStaysBalanced(t *testing.T) {
	f := newBaseFTL(t)
	fillDrive(t, f, 5*f.ExportedPages(), 9)
	dev := f.Device()
	if dev.Stats().Erases == 0 {
		t.Fatal("no erases after 6 drive writes")
	}
	// Round-robin superblock allocation plus uniform churn keeps wear
	// reasonably even without a dedicated leveler.
	if skew := dev.WearSkew(); skew > 5 {
		t.Errorf("wear imbalance %.2f suspiciously high", skew)
	}
	// Endurance extrapolation is monotone in the cycle budget.
	lo := f.LifetimeWrites(1000)
	hi := f.LifetimeWrites(3000)
	if lo == 0 || hi < 3*lo-3 || hi > 3*lo+3 {
		t.Errorf("lifetime estimates lo=%d hi=%d, want hi ~ 3*lo", lo, hi)
	}
}

func TestLowerWAMeansLowerWear(t *testing.T) {
	// The paper's motivation in one test: fewer GC migrations (lower WA)
	// must translate into fewer total erases for the same user writes.
	runWear := func(sep Separator) (uint64, float64) {
		cfg := DefaultConfig(smallGeo())
		f, err := New(cfg, sep, GreedyPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		split := f.ExportedPages() / 100
		_ = split
		// Reuse the oracle workload from TestOracleSeparationBeatsBase.
		for lpn := 0; lpn < f.ExportedPages(); lpn++ {
			if err := f.Write(UserWrite{LPN: nand.LPN(lpn)}); err != nil {
				t.Fatal(err)
			}
		}
		h := 0
		for i := 0; i < 5*f.ExportedPages(); i++ {
			var lpn int
			if i%10 != 0 {
				lpn = h % split
				h++
			} else {
				lpn = split + (i*2654435761)%(f.ExportedPages()-split)
			}
			if err := f.Write(UserWrite{LPN: nand.LPN(lpn)}); err != nil {
				t.Fatal(err)
			}
		}
		return f.Device().Stats().Erases, f.Stats().WA()
	}
	probe, err := New(DefaultConfig(smallGeo()), NewBaseSeparator(), GreedyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	split := nand.LPN(probe.ExportedPages() / 100)
	baseErases, baseWA := runWear(NewBaseSeparator())
	oracleErases, oracleWA := runWear(&hotColdSeparator{split: split})
	t.Logf("base: %d erases (WA %.2f); oracle: %d erases (WA %.2f)", baseErases, baseWA, oracleErases, oracleWA)
	if oracleWA < baseWA && oracleErases >= baseErases {
		t.Errorf("lower WA (%.2f < %.2f) did not reduce wear (%d >= %d)",
			oracleWA, baseWA, oracleErases, baseErases)
	}
}
