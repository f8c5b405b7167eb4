package nand

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// nonPow2Geo has no power-of-two dimension anywhere, so any addressing code
// that silently assumes shift/mask arithmetic fails here.
var nonPow2Geo = Geometry{PageSize: 96, OOBSize: 12, PagesPerBlock: 7, BlocksPerDie: 5, Dies: 3}

func TestCoordinateRoundTripNonPowerOfTwo(t *testing.T) {
	g := nonPow2Geo
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for die := 0; die < g.Dies; die++ {
		for blk := 0; blk < g.BlocksPerDie; blk++ {
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				p := g.PPNOf(die, blk, pg)
				gotDie, gotBlk, gotPg := g.Split(p)
				if gotDie != die || gotBlk != blk || gotPg != pg {
					t.Fatalf("Split(PPNOf(%d,%d,%d)) = (%d,%d,%d)", die, blk, pg, gotDie, gotBlk, gotPg)
				}
				if g.DieOf(p) != die || g.SuperblockOf(p) != blk {
					t.Fatalf("DieOf/SuperblockOf(%d) = %d/%d, want %d/%d", p, g.DieOf(p), g.SuperblockOf(p), die, blk)
				}
			}
		}
	}
	// Superblock striping round-trips too: every offset of every superblock
	// maps to a distinct PPN inside that superblock and back.
	for sb := 0; sb < g.Superblocks(); sb++ {
		seen := map[PPN]bool{}
		for off := 0; off < g.PagesPerSuperblock(); off++ {
			p := g.SuperblockPPN(sb, off)
			if seen[p] {
				t.Fatalf("superblock %d offset %d reuses ppn %d", sb, off, p)
			}
			seen[p] = true
			if g.SuperblockOf(p) != sb {
				t.Fatalf("SuperblockOf(SuperblockPPN(%d,%d)) = %d", sb, off, g.SuperblockOf(p))
			}
			if got := g.SuperblockOffset(p); got != off {
				t.Fatalf("SuperblockOffset(SuperblockPPN(%d,%d)) = %d", sb, off, got)
			}
		}
	}
}

// Under randomized program/invalidate/erase churn — the access pattern GC
// produces — the per-die erase counters must always sum to the device total,
// and the erase hook must observe every single erase with its exact
// cumulative per-block count.
func TestDieEraseInvariantUnderChurn(t *testing.T) {
	d := MustNewDevice(nonPow2Geo)
	g := d.Geometry()

	var hookErases uint64
	hookCounts := make(map[[2]int]int)
	d.SetEraseHook(func(die, blk, count int) {
		hookErases++
		hookCounts[[2]int{die, blk}]++
		if hookCounts[[2]int{die, blk}] != count {
			t.Fatalf("hook count for die %d blk %d = %d, device says %d",
				die, blk, hookCounts[[2]int{die, blk}], count)
		}
	})

	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 200; round++ {
		die := rng.Intn(g.Dies)
		blk := rng.Intn(g.BlocksPerDie)
		// Fill part of the block, invalidate everything, erase. Programs
		// must be in-order from the block's current write pointer, so erase
		// first if the block was left partially programmed by an earlier
		// round targeting it.
		n := rng.Intn(g.PagesPerBlock) + 1
		for pg := 0; pg < n; pg++ {
			p := g.PPNOf(die, blk, pg)
			if st, _ := d.State(p); st != PageFree {
				break
			}
			if err := d.Program(p, LPN(pg), nil); err != nil {
				t.Fatalf("program die %d blk %d pg %d: %v", die, blk, pg, err)
			}
			if err := d.Invalidate(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EraseBlock(die, blk); err != nil {
			t.Fatalf("erase die %d blk %d: %v", die, blk, err)
		}

		var dieSum uint64
		for dd := 0; dd < g.Dies; dd++ {
			c, err := d.DieEraseCount(dd)
			if err != nil {
				t.Fatal(err)
			}
			dieSum += c
		}
		if dieSum != d.Stats().Erases {
			t.Fatalf("round %d: die sum %d != device total %d", round, dieSum, d.Stats().Erases)
		}
	}
	if hookErases != d.Stats().Erases {
		t.Fatalf("hook saw %d erases, device counted %d", hookErases, d.Stats().Erases)
	}
	// Per-block hook tallies must match the device's wear counters exactly.
	for coord, n := range hookCounts {
		c, err := d.EraseCount(coord[0], coord[1])
		if err != nil {
			t.Fatal(err)
		}
		if c != n {
			t.Fatalf("die %d blk %d: hook %d, device %d", coord[0], coord[1], n, c)
		}
	}
}

func TestDieEraseCountRange(t *testing.T) {
	d := MustNewDevice(nonPow2Geo)
	for _, die := range []int{-1, nonPow2Geo.Dies} {
		if _, err := d.DieEraseCount(die); err == nil {
			t.Fatalf("DieEraseCount(%d) accepted out-of-range die", die)
		}
	}
}

// Out-of-range erases are refused and reach none of the wear counters.
func TestOnEraseIgnoresOutOfRange(t *testing.T) {
	d := MustNewDevice(Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 4, BlocksPerDie: 3, Dies: 2})
	for _, c := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 3}} {
		if err := d.EraseBlock(c[0], c[1]); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("EraseBlock(%d,%d): err = %v, want ErrOutOfRange", c[0], c[1], err)
		}
	}
	if e := d.Stats().Erases; e != 0 {
		t.Fatalf("out-of-range erases counted: total %d", e)
	}
	if d.MaxEraseCount() != 0 || !math.IsNaN(d.WearSkew()) || !math.IsNaN(d.WearCoV()) {
		t.Fatalf("out-of-range erases moved the gauges: max %d skew %v cov %v", d.MaxEraseCount(), d.WearSkew(), d.WearCoV())
	}
}

func TestSkewAndCoV(t *testing.T) {
	d := MustNewDevice(Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 4, BlocksPerDie: 2, Dies: 2}) // 4 blocks
	if !math.IsNaN(d.WearSkew()) || !math.IsNaN(d.WearCoV()) {
		t.Fatalf("expected NaN gauges before first erase, got skew %v cov %v", d.WearSkew(), d.WearCoV())
	}
	erase := func(die, blk int) {
		t.Helper()
		if err := d.EraseBlock(die, blk); err != nil {
			t.Fatal(err)
		}
	}

	// Perfectly even: one erase per block → skew 1, cov 0.
	for die := 0; die < 2; die++ {
		for blk := 0; blk < 2; blk++ {
			erase(die, blk)
		}
	}
	if got := d.WearSkew(); got != 1 {
		t.Fatalf("even skew = %v, want 1", got)
	}
	if got := d.WearCoV(); got != 0 {
		t.Fatalf("even cov = %v, want 0", got)
	}

	// Skewed: counts become [3,1,1,1]. mean = 1.5, max = 3 → skew 2.
	erase(0, 0)
	erase(0, 0)
	if got := d.WearSkew(); got != 2 {
		t.Fatalf("skew = %v, want 2", got)
	}
	// variance = mean(x²) − mean² = (9+1+1+1)/4 − 2.25 = 0.75; cov = √0.75/1.5.
	want := math.Sqrt(0.75) / 1.5
	if got := d.WearCoV(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cov = %v, want %v", got, want)
	}
}

// The O(1) wear gauges, kept in erase order, must agree with a full scan of
// the per-block erase counts after every erase of a random sequence: the
// maximum and skew exactly, CoV to rounding.
func TestWearGaugesMatchEraseCounts(t *testing.T) {
	d := MustNewDevice(nonPow2Geo)
	g := d.Geometry()
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, g.TotalBlocks())
	for i := 0; i < 2000; i++ {
		// A skewed pick, so the distribution is far from even.
		die, blk := rng.Intn(g.Dies), rng.Intn(1+rng.Intn(g.BlocksPerDie))
		if err := d.EraseBlock(die, blk); err != nil {
			t.Fatal(err)
		}
		maxC, sum := 0, 0
		for die := 0; die < g.Dies; die++ {
			for blk := 0; blk < g.BlocksPerDie; blk++ {
				c, err := d.EraseCount(die, blk)
				if err != nil {
					t.Fatal(err)
				}
				counts[die*g.BlocksPerDie+blk] = c
				maxC, sum = max(maxC, c), sum+c
			}
		}
		n := float64(len(counts))
		mean := float64(sum) / n
		var sq float64
		for _, c := range counts {
			sq += (float64(c) - mean) * (float64(c) - mean)
		}
		cov := math.Sqrt(sq/n) / mean
		if d.MaxEraseCount() != maxC {
			t.Fatalf("erase %d: MaxEraseCount %d, scan %d", i, d.MaxEraseCount(), maxC)
		}
		if got, want := d.WearSkew(), float64(maxC)/mean; got != want {
			t.Fatalf("erase %d: WearSkew %v, scan %v", i, got, want)
		}
		if got := d.WearCoV(); math.Abs(got-cov) > 1e-12 {
			t.Fatalf("erase %d: WearCoV %v, scan %v", i, got, cov)
		}
	}
}

// The erase hook is nil by default; its cost on the erase path must be a
// single predictable branch. This benchmark pairs with the hooked variant to
// show the delta.
func BenchmarkEraseBlock(b *testing.B) {
	run := func(b *testing.B, hook func(die, blk, count int)) {
		d := MustNewDevice(Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 8, BlocksPerDie: 4, Dies: 2})
		d.SetEraseHook(hook)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.EraseBlock(0, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil-hook", func(b *testing.B) { run(b, nil) })
	b.Run("hooked", func(b *testing.B) {
		var sink uint64
		run(b, func(die, blk, count int) { sink += uint64(count) })
	})
}
