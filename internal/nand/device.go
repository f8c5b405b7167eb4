package nand

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// PageState is the lifecycle state of a physical page.
type PageState uint8

const (
	// PageFree means the page has been erased and may be programmed.
	PageFree PageState = iota
	// PageValid means the page holds live data.
	PageValid
	// PageInvalid means the page holds stale data awaiting erase.
	PageInvalid
)

// String returns a human-readable state name.
func (s PageState) String() string {
	switch s {
	case PageFree:
		return "free"
	case PageValid:
		return "valid"
	case PageInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("PageState(%d)", uint8(s))
	}
}

// OpKind identifies a flash operation reported to the device hook.
type OpKind uint8

const (
	// OpRead is a page read.
	OpRead OpKind = iota
	// OpProgram is a page program.
	OpProgram
	// OpErase is a block erase.
	OpErase
)

// String returns a human-readable operation name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Errors returned by device operations.
var (
	ErrOutOfRange      = errors.New("nand: address out of range")
	ErrNotFree         = errors.New("nand: program target page is not free")
	ErrNotSequential   = errors.New("nand: program violates in-block sequential order")
	ErrReadFree        = errors.New("nand: read of an unwritten page")
	ErrInvalidateState = errors.New("nand: invalidate of a non-valid page")
	ErrEraseValid      = errors.New("nand: erase of a block holding valid pages")
	ErrOOBTooLarge     = errors.New("nand: OOB payload exceeds geometry OOB size")
	ErrDataTooLarge    = errors.New("nand: data payload exceeds geometry page size")
)

type block struct {
	writePtr int // next page index to program (in-block sequential rule)
	validCnt int
	eraseCnt int
	// data is the 1-based index in Device.slots of the first data payload
	// held by a page of this block, chained through dataSlot.next; 0 when
	// the block holds none, so an erase of such a block skips the payloads.
	data int32
}

// dataSlot holds the data payload of one page that carries one (metadata
// pages). Slots are chained per block while in use and on Device.freeSlot
// after an erase, keeping their buffers for the next payload.
type dataSlot struct {
	ppn  PPN
	next int32 // 1-based index of the next slot in the chain; 0 ends it
	buf  []byte
}

// Stats aggregates operation counts for the whole device.
type Stats struct {
	Reads    uint64
	Programs uint64
	Erases   uint64
}

// Device is a functional simulator of a NAND flash package.
//
// Device is not safe for concurrent use; the FTL layered on top serializes
// access, matching a single firmware instance owning the media.
type Device struct {
	geo Geometry

	// Page records, indexed by PPN: one byte of state and four of lpn, all
	// that invalidation and GC walk, dense in cache and pointer-free.
	state []PageState
	lpn   []LPN

	// OOB payloads: page p's bytes are oob[p*OOBSize:][:oobLen[p]]. Both
	// slices stay nil until the first program that carries an OOB payload,
	// so a scheme that never writes one (Base) pays nothing for them.
	oob    []byte
	oobLen []uint16

	// Data payloads, kept only for the pages that carry one (see block.data).
	slots    []dataSlot
	freeSlot int32 // 1-based head of the chain of unused slots; 0 if none

	// blocks is die-major like PPNs, so page p sits in blocks[p/PagesPerBlock]
	// and block blk of a die at blocks[die*BlocksPerDie+blk]. pageShift is
	// log2(PagesPerBlock), or -1 when that is not a power of two and the
	// split takes a division.
	blocks    []block
	pageShift int

	stats Stats
	onOp  func(kind OpKind, p PPN)

	// Wear-observability state.
	dieErase []uint64 // erase cycles per die (sums to stats.Erases)
	maxErase int      // highest per-block erase count
	// eraseSq is the sum of squared per-block erase counts, kept in erase
	// order (taking a count c to c+1 adds 2c+1) so WearCoV is O(1).
	eraseSq float64
	onErase func(die, blk, count int)
}

// NewDevice builds a device with the given geometry. All pages start free.
// Every PPN-indexed slice but the OOB arena is allocated here; the arena is
// allocated whole by the first program that carries an OOB payload, and
// data-payload slots grow only until the live metadata pages fit.
func NewDevice(geo Geometry) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		geo:       geo,
		state:     make([]PageState, geo.TotalPages()),
		lpn:       make([]LPN, geo.TotalPages()),
		blocks:    make([]block, geo.TotalBlocks()),
		pageShift: -1,
		dieErase:  make([]uint64, geo.Dies),
	}
	if ppb := geo.PagesPerBlock; ppb&(ppb-1) == 0 {
		d.pageShift = bits.TrailingZeros(uint(ppb))
	}
	return d, nil
}

// MustNewDevice is NewDevice that panics on invalid geometry; it is intended
// for tests and examples with constant geometries.
func MustNewDevice(geo Geometry) *Device {
	d, err := NewDevice(geo)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// SetOpHook installs a callback invoked after every successful flash
// operation. Timing models use it to charge die service time. For OpErase
// the PPN is the first page of the erased block.
func (d *Device) SetOpHook(fn func(kind OpKind, p PPN)) { d.onOp = fn }

// SetEraseHook installs a callback invoked after every successful block
// erase with the block's physical coordinates and its new cumulative erase
// count. It is independent of the op hook so erase telemetry composes with
// a timing model holding the op hook. A nil hook (the default) costs the
// erase path one predictable branch.
func (d *Device) SetEraseHook(fn func(die, blk, count int)) { d.onErase = fn }

// Stats returns a copy of the accumulated operation counts.
func (d *Device) Stats() Stats { return d.stats }

// errRange is the out-of-range error of every PPN-addressed operation. Kept
// out of line so that State, the one the GC loop calls per page, inlines.
//
//go:noinline
func errRange(p PPN) error { return fmt.Errorf("%w: ppn %d", ErrOutOfRange, p) }

// split resolves an in-range PPN to its index in blocks and its page index
// inside that block.
func (d *Device) split(p PPN) (blk, pg int) {
	if d.pageShift >= 0 {
		return int(p >> uint(d.pageShift)), int(p) & (d.geo.PagesPerBlock - 1)
	}
	ppb := uint32(d.geo.PagesPerBlock)
	return int(uint32(p) / ppb), int(uint32(p) % ppb)
}

// SuperblockOf is Geometry.SuperblockOf with the page split resolved at
// construction: the FTL calls it once per invalidated page.
func (d *Device) SuperblockOf(p PPN) int {
	blk, _ := d.split(p)
	return int(uint32(blk) % uint32(d.geo.BlocksPerDie))
}

// Program writes a page. It records the logical identity lpn and an optional
// OOB payload (copied). Programming must target a free page and, within a
// block, must proceed in strictly ascending page order. User-data payloads
// are not retained (WA experiments only need the page's identity); use
// ProgramFull for pages whose data region must be readable back (metadata
// pages).
func (d *Device) Program(p PPN, lpn LPN, oob []byte) error {
	return d.ProgramFull(p, lpn, nil, oob)
}

// ProgramFull writes a page retaining both a data payload (up to PageSize
// bytes, copied) and an OOB payload.
func (d *Device) ProgramFull(p PPN, lpn LPN, data, oob []byte) error {
	if int(p) >= len(d.state) {
		return errRange(p)
	}
	if len(oob) > d.geo.OOBSize {
		return fmt.Errorf("%w: %d > %d", ErrOOBTooLarge, len(oob), d.geo.OOBSize)
	}
	if len(data) > d.geo.PageSize {
		return fmt.Errorf("%w: %d > %d", ErrDataTooLarge, len(data), d.geo.PageSize)
	}
	if d.state[p] != PageFree {
		return fmt.Errorf("%w: ppn %d is %s", ErrNotFree, p, d.state[p])
	}
	blk, pg := d.split(p)
	b := &d.blocks[blk]
	if pg != b.writePtr {
		return fmt.Errorf("%w: ppn %d (page %d, expected %d)", ErrNotSequential, p, pg, b.writePtr)
	}
	d.state[p] = PageValid
	d.lpn[p] = lpn
	// A free page's payload lengths are zero (EraseBlock resets them), so
	// only a non-empty payload needs storing.
	if len(oob) > 0 {
		if d.oob == nil {
			d.oob = make([]byte, len(d.state)*d.geo.OOBSize)
			d.oobLen = make([]uint16, len(d.state))
		}
		copy(d.oob[int(p)*d.geo.OOBSize:], oob)
		d.oobLen[p] = uint16(len(oob))
	}
	if len(data) > 0 {
		s := d.freeSlot
		if s == 0 {
			d.slots = append(d.slots, dataSlot{})
			s = int32(len(d.slots))
		} else {
			d.freeSlot = d.slots[s-1].next
		}
		ds := &d.slots[s-1]
		ds.ppn = p
		ds.buf = append(ds.buf[:0], data...)
		ds.next = b.data
		b.data = s
	}
	b.writePtr = pg + 1
	b.validCnt++
	d.stats.Programs++
	if d.onOp != nil {
		d.onOp(OpProgram, p)
	}
	return nil
}

// Read returns the logical identity and OOB payload stored in a page. The
// page may be valid or invalid (an FTL may read stale pages during debugging
// or GC races) but not free. The returned OOB slice aliases device memory and
// must not be modified; its capacity ends at its length, so appending to it
// copies.
func (d *Device) Read(p PPN) (LPN, []byte, error) {
	if int(p) >= len(d.state) {
		return InvalidLPN, nil, errRange(p)
	}
	if d.state[p] == PageFree {
		return InvalidLPN, nil, fmt.Errorf("%w: ppn %d", ErrReadFree, p)
	}
	d.stats.Reads++
	if d.onOp != nil {
		d.onOp(OpRead, p)
	}
	var oob []byte
	if d.oobLen != nil && d.oobLen[p] != 0 {
		off, n := int(p)*d.geo.OOBSize, int(d.oobLen[p])
		oob = d.oob[off : off+n : off+n]
	}
	return d.lpn[p], oob, nil
}

// ReadFull returns the logical identity, stored data payload and OOB payload
// of a non-free page. The returned slices alias device memory and must not
// be modified; as with Read, appending to them copies.
func (d *Device) ReadFull(p PPN) (LPN, []byte, []byte, error) {
	lpn, oob, err := d.Read(p)
	if err != nil {
		return lpn, nil, nil, err
	}
	return lpn, d.dataOf(p), oob, nil
}

// dataOf returns the data payload of page p, capacity-capped, or nil when
// the page carries none.
func (d *Device) dataOf(p PPN) []byte {
	blk, _ := d.split(p)
	for s := d.blocks[blk].data; s != 0; s = d.slots[s-1].next {
		if ds := &d.slots[s-1]; ds.ppn == p {
			return ds.buf[:len(ds.buf):len(ds.buf)]
		}
	}
	return nil
}

// Invalidate marks a valid page as stale (its logical page was overwritten or
// trimmed).
func (d *Device) Invalidate(p PPN) error {
	if int(p) >= len(d.state) {
		return errRange(p)
	}
	if d.state[p] != PageValid {
		return fmt.Errorf("%w: ppn %d is %s", ErrInvalidateState, p, d.state[p])
	}
	d.state[p] = PageInvalid
	blk, _ := d.split(p)
	d.blocks[blk].validCnt--
	return nil
}

// blockAt returns block blk of a die, or ErrOutOfRange.
func (d *Device) blockAt(die, blk int) (*block, error) {
	if die < 0 || die >= d.geo.Dies || blk < 0 || blk >= d.geo.BlocksPerDie {
		return nil, fmt.Errorf("%w: die %d block %d", ErrOutOfRange, die, blk)
	}
	return &d.blocks[die*d.geo.BlocksPerDie+blk], nil
}

// EraseBlock erases one block, freeing all its pages. Erasing a block that
// still holds valid pages is refused: the FTL must migrate them first.
func (d *Device) EraseBlock(die, blk int) error {
	b, err := d.blockAt(die, blk)
	if err != nil {
		return err
	}
	if b.validCnt != 0 {
		return fmt.Errorf("%w: die %d block %d has %d valid pages", ErrEraseValid, die, blk, b.validCnt)
	}
	first := d.geo.PPNOf(die, blk, 0)
	end := int(first) + d.geo.PagesPerBlock
	clear(d.state[first:end]) // PageFree
	clear(d.lpn[first:end])
	if d.oobLen != nil {
		clear(d.oobLen[first:end])
	}
	// Hand the block's data slots to the free chain with their buffers:
	// superblocks cycle through erase constantly under GC, and dropping the
	// buffers here would make every re-program after an erase allocate.
	if b.data != 0 {
		last := b.data
		for d.slots[last-1].next != 0 {
			last = d.slots[last-1].next
		}
		d.slots[last-1].next = d.freeSlot
		d.freeSlot = b.data
		b.data = 0
	}
	b.writePtr = 0
	d.eraseSq += float64(2*b.eraseCnt + 1)
	b.eraseCnt++
	d.maxErase = max(d.maxErase, b.eraseCnt)
	d.dieErase[die]++
	d.stats.Erases++
	if d.onOp != nil {
		d.onOp(OpErase, first)
	}
	if d.onErase != nil {
		d.onErase(die, blk, b.eraseCnt)
	}
	return nil
}

// EraseSuperblock erases every block of a superblock across all dies.
func (d *Device) EraseSuperblock(sb int) error {
	if sb < 0 || sb >= d.geo.Superblocks() {
		return fmt.Errorf("%w: superblock %d", ErrOutOfRange, sb)
	}
	for die := 0; die < d.geo.Dies; die++ {
		if err := d.EraseBlock(die, sb); err != nil {
			return err
		}
	}
	return nil
}

// State returns the state of a page.
func (d *Device) State(p PPN) (PageState, error) {
	if int(p) >= len(d.state) {
		return PageFree, errRange(p)
	}
	return d.state[p], nil
}

// LPNAt returns the logical identity recorded in a non-free page without
// counting a flash read (FTL-internal bookkeeping access).
func (d *Device) LPNAt(p PPN) (LPN, error) {
	if int(p) >= len(d.state) {
		return InvalidLPN, errRange(p)
	}
	if d.state[p] == PageFree {
		return InvalidLPN, fmt.Errorf("%w: ppn %d", ErrReadFree, p)
	}
	return d.lpn[p], nil
}

// BlockValidCount returns the number of valid pages in a block.
func (d *Device) BlockValidCount(die, blk int) (int, error) {
	b, err := d.blockAt(die, blk)
	if err != nil {
		return 0, err
	}
	return b.validCnt, nil
}

// SuperblockValidCount returns the number of valid pages in a superblock.
func (d *Device) SuperblockValidCount(sb int) (int, error) {
	if sb < 0 || sb >= d.geo.Superblocks() {
		return 0, fmt.Errorf("%w: superblock %d", ErrOutOfRange, sb)
	}
	total := 0
	for die := 0; die < d.geo.Dies; die++ {
		total += d.blocks[die*d.geo.BlocksPerDie+sb].validCnt
	}
	return total, nil
}

// EraseCount returns the wear (erase cycles) of a block.
func (d *Device) EraseCount(die, blk int) (int, error) {
	b, err := d.blockAt(die, blk)
	if err != nil {
		return 0, err
	}
	return b.eraseCnt, nil
}

// DieEraseCount returns the total erase cycles absorbed by one die. The
// per-die counts always sum to Stats().Erases.
func (d *Device) DieEraseCount(die int) (uint64, error) {
	if die < 0 || die >= d.geo.Dies {
		return 0, fmt.Errorf("%w: die %d", ErrOutOfRange, die)
	}
	return d.dieErase[die], nil
}

// MaxEraseCount returns the highest erase count across all blocks, a proxy
// for device wear.
func (d *Device) MaxEraseCount() int { return d.maxErase }

// WearSkew returns the max/mean ratio of the per-block erase distribution
// (1 = perfectly even wear). NaN before the first erase, the sinks'
// "gauge not applicable" convention.
func (d *Device) WearSkew() float64 {
	if d.stats.Erases == 0 {
		return math.NaN()
	}
	mean := float64(d.stats.Erases) / float64(len(d.blocks))
	return float64(d.maxErase) / mean
}

// WearCoV returns the coefficient of variation (stddev/mean) of the
// per-block erase distribution; 0 = perfectly even. NaN before the first
// erase.
func (d *Device) WearCoV() float64 {
	if d.stats.Erases == 0 {
		return math.NaN()
	}
	n := float64(len(d.blocks))
	mean := float64(d.stats.Erases) / n
	variance := max(d.eraseSq/n-mean*mean, 0) // cancellation on even wear
	return math.Sqrt(variance) / mean
}
