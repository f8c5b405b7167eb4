// Package nand simulates a NAND flash device: channels, dies, blocks and
// pages, with the idiosyncrasies an FTL must respect — erase-before-write,
// strictly sequential programming inside a block, page-granularity reads and
// writes, and a per-page out-of-band (OOB) area. It also exposes the
// superblock addressing used by modern SSDs (all blocks with the same in-die
// offset form one superblock) and tracks wear and operation counts.
//
// The simulator stores only what an FTL experiment needs: the logical page
// number recorded in each programmed page plus the OOB bytes. No user payload
// is retained, which keeps multi-gigabyte virtual drives cheap to simulate.
package nand

import (
	"fmt"
	"math"
)

// Geometry describes the physical layout of a simulated NAND device.
//
// The device has Dies independent dies (the channel/way distinction is
// flattened: dies are the unit of parallelism). Each die holds BlocksPerDie
// blocks of PagesPerBlock pages, every page PageSize bytes of data plus
// OOBSize bytes of out-of-band area.
type Geometry struct {
	PageSize      int // data bytes per page, e.g. 16384
	OOBSize       int // out-of-band bytes per page, e.g. 256
	PagesPerBlock int // pages per block, e.g. 256
	BlocksPerDie  int // blocks per die; also the number of superblocks
	Dies          int // independent dies (parallel units)
}

// Validate reports an error if any geometry parameter is non-positive, or if
// OOBSize exceeds the 65535 bytes the device records an OOB length in.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("nand: PageSize must be positive, got %d", g.PageSize)
	case g.OOBSize < 0:
		return fmt.Errorf("nand: OOBSize must be non-negative, got %d", g.OOBSize)
	case g.OOBSize > math.MaxUint16:
		return fmt.Errorf("nand: OOBSize must be at most %d, got %d", math.MaxUint16, g.OOBSize)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("nand: PagesPerBlock must be positive, got %d", g.PagesPerBlock)
	case g.BlocksPerDie <= 0:
		return fmt.Errorf("nand: BlocksPerDie must be positive, got %d", g.BlocksPerDie)
	case g.Dies <= 0:
		return fmt.Errorf("nand: Dies must be positive, got %d", g.Dies)
	}
	return nil
}

// TotalBlocks returns the number of blocks in the device.
func (g Geometry) TotalBlocks() int { return g.Dies * g.BlocksPerDie }

// TotalPages returns the number of pages in the device.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// Superblocks returns the number of superblocks. A superblock is formed by
// the blocks with the same in-die block index across all dies.
func (g Geometry) Superblocks() int { return g.BlocksPerDie }

// PagesPerSuperblock returns the number of pages in one superblock.
func (g Geometry) PagesPerSuperblock() int { return g.Dies * g.PagesPerBlock }

// PagesPerDie returns the number of pages in one die.
func (g Geometry) PagesPerDie() int { return g.BlocksPerDie * g.PagesPerBlock }

// CapacityBytes returns the raw data capacity of the device in bytes.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// PPN is a physical page number: a linear index over every page in the
// device, laid out die-major (die, then block within die, then page within
// block).
type PPN uint32

// InvalidPPN is the sentinel for "no physical page".
const InvalidPPN PPN = ^PPN(0)

// LPN is a logical page number as seen by the host.
type LPN uint32

// InvalidLPN is the sentinel for "no logical page", used for pages that were
// programmed without a logical identity (e.g. metadata pages).
const InvalidLPN LPN = ^LPN(0)

// PPNOf assembles a PPN from (die, blockInDie, pageInBlock).
func (g Geometry) PPNOf(die, block, page int) PPN {
	return PPN(die*g.PagesPerDie() + block*g.PagesPerBlock + page)
}

// Split decomposes a PPN into (die, blockInDie, pageInBlock).
func (g Geometry) Split(p PPN) (die, block, page int) {
	i := int(p)
	die = i / g.PagesPerDie()
	rem := i % g.PagesPerDie()
	return die, rem / g.PagesPerBlock, rem % g.PagesPerBlock
}

// DieOf returns the die index a PPN resides on.
func (g Geometry) DieOf(p PPN) int { return int(p) / g.PagesPerDie() }

// SuperblockOf returns the superblock index (the in-die block index) that a
// PPN belongs to.
func (g Geometry) SuperblockOf(p PPN) int {
	_, block, _ := g.Split(p)
	return block
}

// SuperblockPPN maps a superblock index and an allocation offset inside the
// superblock to a PPN. Offsets are striped round-robin across dies so that
// consecutive allocations land on different dies: offset k maps to die
// k mod Dies, page k div Dies of that die's block.
func (g Geometry) SuperblockPPN(sb, offset int) PPN {
	die := offset % g.Dies
	page := offset / g.Dies
	return g.PPNOf(die, sb, page)
}

// SuperblockOffset is the inverse of SuperblockPPN: it returns the
// round-robin allocation offset of a PPN inside its superblock.
func (g Geometry) SuperblockOffset(p PPN) int {
	die, _, page := g.Split(p)
	return page*g.Dies + die
}
