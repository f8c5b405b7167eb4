package nand

import (
	"testing"
	"testing/quick"
)

func testGeo() Geometry {
	return Geometry{PageSize: 16384, OOBSize: 64, PagesPerBlock: 8, BlocksPerDie: 16, Dies: 4}
}

func TestGeometryValidate(t *testing.T) {
	good := testGeo()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Geometry)
	}{
		{"zero page size", func(g *Geometry) { g.PageSize = 0 }},
		{"negative oob", func(g *Geometry) { g.OOBSize = -1 }},
		{"oob length past uint16", func(g *Geometry) { g.OOBSize = 1 << 16 }},
		{"zero pages per block", func(g *Geometry) { g.PagesPerBlock = 0 }},
		{"zero blocks per die", func(g *Geometry) { g.BlocksPerDie = 0 }},
		{"zero dies", func(g *Geometry) { g.Dies = 0 }},
	}
	widest := testGeo()
	widest.OOBSize = 1<<16 - 1
	if err := widest.Validate(); err != nil {
		t.Errorf("OOBSize 65535 rejected: %v", err)
	}
	for _, tc := range cases {
		g := testGeo()
		tc.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestGeometryDerivedCounts(t *testing.T) {
	g := testGeo()
	if got, want := g.TotalBlocks(), 64; got != want {
		t.Errorf("TotalBlocks = %d, want %d", got, want)
	}
	if got, want := g.TotalPages(), 512; got != want {
		t.Errorf("TotalPages = %d, want %d", got, want)
	}
	if got, want := g.Superblocks(), 16; got != want {
		t.Errorf("Superblocks = %d, want %d", got, want)
	}
	if got, want := g.PagesPerSuperblock(), 32; got != want {
		t.Errorf("PagesPerSuperblock = %d, want %d", got, want)
	}
	if got, want := g.CapacityBytes(), int64(512*16384); got != want {
		t.Errorf("CapacityBytes = %d, want %d", got, want)
	}
}

func TestPPNSplitRoundTrip(t *testing.T) {
	g := testGeo()
	for die := 0; die < g.Dies; die++ {
		for blk := 0; blk < g.BlocksPerDie; blk++ {
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				p := g.PPNOf(die, blk, pg)
				d2, b2, p2 := g.Split(p)
				if d2 != die || b2 != blk || p2 != pg {
					t.Fatalf("Split(PPNOf(%d,%d,%d)) = (%d,%d,%d)", die, blk, pg, d2, b2, p2)
				}
				if g.DieOf(p) != die {
					t.Fatalf("DieOf(%d) = %d, want %d", p, g.DieOf(p), die)
				}
				if g.SuperblockOf(p) != blk {
					t.Fatalf("SuperblockOf(%d) = %d, want %d", p, g.SuperblockOf(p), blk)
				}
			}
		}
	}
}

func TestSuperblockPPNStripesAcrossDies(t *testing.T) {
	g := testGeo()
	seen := map[PPN]bool{}
	for off := 0; off < g.PagesPerSuperblock(); off++ {
		p := g.SuperblockPPN(3, off)
		if seen[p] {
			t.Fatalf("offset %d maps to duplicate ppn %d", off, p)
		}
		seen[p] = true
		if g.SuperblockOf(p) != 3 {
			t.Fatalf("offset %d escaped superblock: got sb %d", off, g.SuperblockOf(p))
		}
		if want := off % g.Dies; g.DieOf(p) != want {
			t.Fatalf("offset %d on die %d, want %d (round-robin)", off, g.DieOf(p), want)
		}
		if back := g.SuperblockOffset(p); back != off {
			t.Fatalf("SuperblockOffset(SuperblockPPN(3,%d)) = %d", off, back)
		}
	}
}

func TestSuperblockOffsetRoundTripProperty(t *testing.T) {
	g := testGeo()
	f := func(sbRaw, offRaw uint16) bool {
		sb := int(sbRaw) % g.Superblocks()
		off := int(offRaw) % g.PagesPerSuperblock()
		p := g.SuperblockPPN(sb, off)
		return g.SuperblockOf(p) == sb && g.SuperblockOffset(p) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
