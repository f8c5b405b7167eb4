package ftl

import (
	"errors"
	"fmt"

	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

// Config parameterizes an FTL instance.
type Config struct {
	Geometry nand.Geometry

	// OPRatio is the over-provisioning ratio: the exported logical capacity
	// is data capacity / (1 + OPRatio). The paper uses 7%.
	OPRatio float64

	// GCWatermark triggers GC after a write when the fraction of free
	// superblocks falls to or below this value. The paper uses 5%.
	GCWatermark float64

	// MetaPagesPerSB reserves tail pages of every superblock for
	// scheme-managed metadata (PHFTL's meta pages). 0 for schemes without
	// flash-resident metadata.
	MetaPagesPerSB int

	// MaxGCClass caps the per-page GC count used for GC-write separation
	// (paper: pages GC'ed five times or more share a superblock).
	MaxGCClass int

	// CountHostReads charges host reads as flash reads on the device.
	// WA-only experiments leave it false for speed; timing models set it.
	CountHostReads bool
}

// DefaultConfig returns the paper's parameters for a given geometry.
func DefaultConfig(geo nand.Geometry) Config {
	return Config{
		Geometry:    geo,
		OPRatio:     0.07,
		GCWatermark: 0.05,
		MaxGCClass:  5,
	}
}

// ExportedPages is the logical capacity an FTL built from this
// configuration exports: the data pages of every superblock (meta pages
// excluded) divided by 1 + OPRatio. It is the one place that capacity is
// derived; schemes sized to the drive (SepBIT's table, PHFTL's per-page
// arrays) read it before the FTL exists.
func (c Config) ExportedPages() int {
	dataPages := c.Geometry.PagesPerSuperblock() - c.MetaPagesPerSB
	return int(float64(c.Geometry.Superblocks()*dataPages) / (1 + c.OPRatio))
}

// SuperblockState is the lifecycle state of a superblock.
type SuperblockState uint8

const (
	// SBFree means the superblock is erased and on the free list.
	SBFree SuperblockState = iota
	// SBOpen means the superblock is accepting writes for one stream.
	SBOpen
	// SBClosed means the superblock is full and awaiting GC.
	SBClosed
)

type superblock struct {
	state      SuperblockState
	stream     int
	gcClass    int
	writePtr   int // next data-region allocation offset
	valid      int // valid data pages
	openClock  uint64
	closeClock uint64
}

// Stats aggregates FTL activity. Page counts are in pages.
type Stats struct {
	UserPageWrites uint64 // U: host-written pages
	GCPageWrites   uint64 // valid-page migrations
	MetaPageWrites uint64 // scheme meta-page programs
	HostPageReads  uint64
	GCPageReads    uint64
	GCVictims      uint64 // superblocks collected
	GCFutile       uint64 // GC passes that found no victim with invalid pages
	Trims          uint64
}

// FlashPageWrites returns F: every page programmed to flash (user + GC +
// meta).
func (s Stats) FlashPageWrites() uint64 {
	return s.UserPageWrites + s.GCPageWrites + s.MetaPageWrites
}

// WA returns the paper's write amplification (F−U)/U including meta-page
// writes in F.
func (s Stats) WA() float64 {
	return metrics.WriteAmp(s.FlashPageWrites(), s.UserPageWrites)
}

// DataWA returns (F−U)/U counting only data-page writes, isolating GC
// amplification from metadata overhead.
func (s Stats) DataWA() float64 {
	return metrics.WriteAmp(s.UserPageWrites+s.GCPageWrites, s.UserPageWrites)
}

// Errors returned by the FTL.
var (
	ErrLPNRange    = errors.New("ftl: LPN beyond exported capacity")
	ErrNoFreeSpace = errors.New("ftl: free superblock pool exhausted")
	ErrUnmapped    = errors.New("ftl: read of unmapped LPN")
)

// FTL is the flash translation layer engine. It is not safe for concurrent
// use.
type FTL struct {
	cfg     Config
	dev     *nand.Device
	sep     Separator
	trimSep TrimAware // sep's TrimAware view, nil if not implemented
	policy  VictimPolicy

	l2p       []nand.PPN
	sbs       []superblock
	free      []int // free superblock IDs (LIFO)
	open      []int // stream -> open superblock ID, -1 if none
	dataPages int   // data pages per superblock
	exported  int   // exported logical pages
	minFree   int   // hard GC floor: always keep this many free superblocks

	clock uint64 // virtual time: user pages written
	stats Stats

	// vidx buckets closed superblocks by invalid-page count for selectVictim
	// (victimindex.go). victimHook is nil outside this package's tests, which
	// put the reference scan in its place.
	vidx       victimIndex
	victimHook func() int

	// rec, when non-nil, receives structured trace events (superblock
	// lifecycle, GC, write stalls). Every emit is guarded by a nil check so
	// the disabled path costs one predictable branch.
	rec obs.Recorder
}

// New assembles an FTL over a fresh device.
func New(cfg Config, sep Separator, policy VictimPolicy) (*FTL, error) {
	dev, err := nand.NewDevice(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	return NewWithDevice(cfg, dev, sep, policy)
}

// NewWithDevice assembles an FTL over an existing (fresh) device, letting
// callers install device hooks first.
func NewWithDevice(cfg Config, dev *nand.Device, sep Separator, policy VictimPolicy) (*FTL, error) {
	geo := cfg.Geometry
	dataPages := geo.PagesPerSuperblock() - cfg.MetaPagesPerSB
	if dataPages <= 0 {
		return nil, fmt.Errorf("ftl: MetaPagesPerSB %d leaves no data pages (superblock has %d)",
			cfg.MetaPagesPerSB, geo.PagesPerSuperblock())
	}
	if cfg.OPRatio < 0 {
		return nil, fmt.Errorf("ftl: negative OPRatio %v", cfg.OPRatio)
	}
	if cfg.GCWatermark <= 0 || cfg.GCWatermark >= 1 {
		return nil, fmt.Errorf("ftl: GCWatermark %v outside (0,1)", cfg.GCWatermark)
	}
	if cfg.MaxGCClass < 1 {
		cfg.MaxGCClass = 1
	}
	exported := cfg.ExportedPages()
	if exported < 1 {
		return nil, fmt.Errorf("ftl: configuration exports no capacity")
	}
	if sep.NumStreams() < 1 {
		return nil, fmt.Errorf("ftl: separator %q declares %d streams", sep.Name(), sep.NumStreams())
	}
	if geo.Superblocks() < 2*(sep.NumStreams()+2) {
		return nil, fmt.Errorf("ftl: %d streams need at least %d superblocks, geometry provides %d",
			sep.NumStreams(), 2*(sep.NumStreams()+2), geo.Superblocks())
	}
	f := &FTL{
		cfg:       cfg,
		dev:       dev,
		sep:       sep,
		policy:    policy,
		l2p:       make([]nand.PPN, exported),
		sbs:       make([]superblock, geo.Superblocks()),
		open:      make([]int, sep.NumStreams()),
		dataPages: dataPages,
		exported:  exported,
	}
	f.trimSep, _ = sep.(TrimAware)
	for i := range f.l2p {
		f.l2p[i] = nand.InvalidPPN
	}
	f.vidx.init(geo.Superblocks(), dataPages)
	// Safety floor: one GC pass can open a destination superblock per
	// stream before the victim's erase lands, so this many superblocks must
	// always stay free or allocation deadlocks.
	f.minFree = sep.NumStreams() + 1
	// The physical spare (superblocks not needed to hold the exported
	// capacity) must exceed that floor, or GC can never make progress once
	// the drive fills.
	liveSBs := (exported + dataPages - 1) / dataPages
	spare := geo.Superblocks() - liveSBs
	if spare < f.minFree+2 {
		return nil, fmt.Errorf(
			"ftl: only %d spare superblocks for a GC floor of %d; increase OPRatio or device size",
			spare, f.minFree)
	}
	for i := range f.open {
		f.open[i] = -1
	}
	// Free list: high IDs popped first keeps low superblocks for early data,
	// which makes traces reproducible and debuggable.
	for sb := geo.Superblocks() - 1; sb >= 0; sb-- {
		f.free = append(f.free, sb)
	}
	return f, nil
}

// Device exposes the underlying NAND device (read-only use by schemes and
// timing models).
func (f *FTL) Device() *nand.Device { return f.dev }

// Config returns the configuration the FTL runs with.
func (f *FTL) Config() Config { return f.cfg }

// ExportedPages returns the logical capacity in pages.
func (f *FTL) ExportedPages() int { return f.exported }

// DataPagesPerSB returns the data-region size of each superblock.
func (f *FTL) DataPagesPerSB() int { return f.dataPages }

// Clock returns the virtual time: total user pages written so far.
func (f *FTL) Clock() uint64 { return f.clock }

// Stats returns a copy of the accumulated statistics.
func (f *FTL) Stats() Stats { return f.stats }

// Separator returns the installed data-separation scheme.
func (f *FTL) Separator() Separator { return f.sep }

// Policy returns the victim policy in use.
func (f *FTL) Policy() VictimPolicy { return f.policy }

// SetRecorder installs (or with nil removes) the trace-event recorder.
func (f *FTL) SetRecorder(r obs.Recorder) { f.rec = r }

// OpenFill returns the per-stream fill fraction (pages written / data
// pages) of each stream's open superblock; streams with no open superblock
// report 0. The returned slice is reused across calls.
func (f *FTL) OpenFill(dst []float64) []float64 {
	if cap(dst) < len(f.open) {
		dst = make([]float64, len(f.open))
	}
	dst = dst[:len(f.open)]
	for stream, sbID := range f.open {
		if sbID < 0 {
			dst[stream] = 0
			continue
		}
		dst[stream] = float64(f.sbs[sbID].writePtr) / float64(f.dataPages)
	}
	return dst
}

// MappedPPN returns the current physical location of an LPN, or InvalidPPN.
func (f *FTL) MappedPPN(lpn nand.LPN) nand.PPN {
	if int(lpn) >= f.exported {
		return nand.InvalidPPN
	}
	return f.l2p[lpn]
}

// allocPage takes the next page of the stream's open superblock, opening a
// fresh superblock when needed, and returns its PPN. It does NOT close full
// superblocks; the caller must invoke closeIfFull after programming.
func (f *FTL) allocPage(stream, gcClass int) (nand.PPN, error) {
	sbID := f.open[stream]
	if sbID < 0 {
		if len(f.free) == 0 {
			return nand.InvalidPPN, fmt.Errorf("%w: stream %d", ErrNoFreeSpace, stream)
		}
		sbID = f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		sb := &f.sbs[sbID]
		sb.state = SBOpen
		sb.stream = stream
		sb.gcClass = gcClass
		sb.writePtr = 0
		sb.valid = 0
		sb.openClock = f.clock
		f.open[stream] = sbID
		if f.rec != nil {
			f.rec.Record(obs.Event{
				Kind: obs.KindSBOpen, Clock: f.clock,
				SB: int32(sbID), Stream: int16(stream), GCClass: int16(gcClass),
				B: int64(len(f.free)),
			})
		}
	}
	sb := &f.sbs[sbID]
	ppn := f.cfg.Geometry.SuperblockPPN(sbID, sb.writePtr)
	sb.writePtr++
	sb.valid++
	return ppn, nil
}

// closeIfFull seals the stream's open superblock when its data region is
// full: the separator's meta pages are programmed into the tail and the
// superblock transitions to SBClosed.
func (f *FTL) closeIfFull(stream int) error {
	sbID := f.open[stream]
	if sbID < 0 {
		return nil
	}
	sb := &f.sbs[sbID]
	if sb.writePtr < f.dataPages {
		return nil
	}
	if f.cfg.MetaPagesPerSB > 0 {
		pages := f.sep.MetaPages(sbID)
		if len(pages) != f.cfg.MetaPagesPerSB {
			return fmt.Errorf("ftl: separator %q returned %d meta pages, want %d",
				f.sep.Name(), len(pages), f.cfg.MetaPagesPerSB)
		}
		for i, buf := range pages {
			ppn := f.cfg.Geometry.SuperblockPPN(sbID, f.dataPages+i)
			if err := f.dev.ProgramFull(ppn, nand.InvalidLPN, buf, nil); err != nil {
				return fmt.Errorf("ftl: meta page program: %w", err)
			}
			f.stats.MetaPageWrites++
		}
	}
	sb.state = SBClosed
	sb.closeClock = f.clock
	f.open[stream] = -1
	// Pages can be invalidated while the superblock is still open, so it
	// enters the victim index at its current invalid count, not zero.
	f.vidx.insert(sbID, f.dataPages-sb.valid, sb.closeClock)
	if f.rec != nil {
		f.rec.Record(obs.Event{
			Kind: obs.KindSBClose, Clock: f.clock,
			SB: int32(sbID), Stream: int16(stream), GCClass: int16(sb.gcClass),
			A: int64(sb.valid),
		})
	}
	return nil
}

// Write performs one page-granularity host write.
func (f *FTL) Write(w UserWrite) error {
	if int(w.LPN) >= f.exported {
		return fmt.Errorf("%w: %d >= %d", ErrLPNRange, w.LPN, f.exported)
	}
	w.OldPPN = f.l2p[w.LPN]
	stream, oob := f.sep.PlaceUserWrite(w, f.clock)
	ppn, err := f.allocPage(stream, 0)
	if err != nil {
		return err
	}
	if err := f.dev.Program(ppn, w.LPN, oob); err != nil {
		return err
	}
	f.invalidateOld(w.LPN)
	f.l2p[w.LPN] = ppn
	f.clock++
	f.stats.UserPageWrites++
	f.sep.OnPagePlaced(w.LPN, ppn, true)
	if err := f.closeIfFull(stream); err != nil {
		return err
	}
	return f.maybeGC()
}

func (f *FTL) invalidateOld(lpn nand.LPN) {
	old := f.l2p[lpn]
	if old == nand.InvalidPPN {
		return
	}
	if err := f.dev.Invalidate(old); err != nil {
		// Programming errors above guarantee this cannot happen; a failure
		// here indicates simulator state corruption.
		panic(fmt.Sprintf("ftl: invalidate %d: %v", old, err))
	}
	sbID := f.dev.SuperblockOf(old)
	sb := &f.sbs[sbID]
	sb.valid--
	if sb.state == SBClosed {
		f.vidx.bump(sbID, sb.closeClock)
	}
}

// Read performs one page-granularity host read. It returns ErrUnmapped for
// never-written LPNs (hosts read zeroes there; callers may ignore it).
func (f *FTL) Read(lpn nand.LPN, reqPages int) error {
	if int(lpn) >= f.exported {
		return fmt.Errorf("%w: %d >= %d", ErrLPNRange, lpn, f.exported)
	}
	f.sep.OnUserRead(lpn, reqPages)
	ppn := f.l2p[lpn]
	if ppn == nand.InvalidPPN {
		return ErrUnmapped
	}
	f.stats.HostPageReads++
	if f.cfg.CountHostReads {
		if _, _, err := f.dev.Read(ppn); err != nil {
			return err
		}
	}
	return nil
}

// Trim invalidates an LPN (e.g. a discard command). Trims of unmapped LPNs
// are no-ops. The separator's TrimAware hook (if any) fires before the page
// is invalidated, so the scheme can still resolve metadata addressed by the
// old physical location.
func (f *FTL) Trim(lpn nand.LPN) error {
	if int(lpn) >= f.exported {
		return fmt.Errorf("%w: %d >= %d", ErrLPNRange, lpn, f.exported)
	}
	if f.l2p[lpn] == nand.InvalidPPN {
		return nil
	}
	if f.trimSep != nil {
		f.trimSep.OnTrim(lpn, f.l2p[lpn], f.clock)
	}
	f.invalidateOld(lpn)
	f.l2p[lpn] = nand.InvalidPPN
	f.stats.Trims++
	return nil
}

// ReadFlashPage reads an arbitrary physical page's logical identity and OOB
// payload, charging a flash read.
func (f *FTL) ReadFlashPage(ppn nand.PPN) (nand.LPN, []byte, error) {
	return f.dev.Read(ppn)
}

// ReadMetaPage reads the data payload of a (metadata) page, charging a flash
// read. PHFTL's metadata store uses it to fetch meta pages on cache misses.
func (f *FTL) ReadMetaPage(ppn nand.PPN) ([]byte, error) {
	_, data, _, err := f.dev.ReadFull(ppn)
	return data, err
}

// FreeSuperblocks returns the current number of free superblocks.
func (f *FTL) FreeSuperblocks() int { return len(f.free) }

// LifetimeWrites estimates how many user page writes the drive can absorb
// before any block reaches enduranceCycles erases, extrapolating linearly
// from the device's most-erased block. Returns 0 before any erase happened.
func (f *FTL) LifetimeWrites(enduranceCycles int) uint64 {
	maxErases := f.dev.MaxEraseCount()
	if maxErases == 0 || f.stats.UserPageWrites == 0 {
		return 0
	}
	return f.stats.UserPageWrites * uint64(enduranceCycles) / uint64(maxErases)
}

// maybeGC implements the paper's GC trigger (§III-D): after each write, if
// the proportion of free superblocks is below the watermark, one victim is
// collected. Collecting only one victim per write lets the free pool float
// below the watermark under pressure, so garbage ages toward fully-dead
// superblocks instead of being harvested prematurely — the free pool is a
// trigger, not a reserve. A hard floor (enough free superblocks for every
// stream to open a GC destination) is enforced unconditionally to keep
// allocation deadlock-free.
func (f *FTL) maybeGC() error {
	for len(f.free) <= f.minFree {
		// The free pool has hit the hard floor: the host write is stalled
		// behind synchronous reclamation.
		if f.rec != nil {
			f.rec.Record(obs.Event{
				Kind: obs.KindWriteStall, Clock: f.clock,
				SB: -1, Stream: -1, GCClass: -1,
				A: int64(len(f.free)),
			})
		}
		victim := f.selectVictim()
		if victim < 0 {
			f.stats.GCFutile++
			return nil
		}
		if err := f.collect(victim); err != nil {
			return err
		}
	}
	if float64(len(f.free))/float64(f.cfg.Geometry.Superblocks()) < f.cfg.GCWatermark {
		victim := f.selectVictim()
		if victim < 0 {
			f.stats.GCFutile++
			return nil
		}
		return f.collect(victim)
	}
	return nil
}

// collect migrates the victim's valid pages and erases it.
func (f *FTL) collect(victim int) error {
	geo := f.cfg.Geometry
	sb := &f.sbs[victim]
	// The victim leaves the index before migration: its valid count decays
	// page by page below, and it re-enters only when it closes again.
	f.vidx.remove(victim)
	class := sb.gcClass + 1
	if class > f.cfg.MaxGCClass {
		class = f.cfg.MaxGCClass
	}
	victimStream, victimClass := sb.stream, sb.gcClass
	validAtStart := sb.valid
	validRatio := float64(validAtStart) / float64(f.dataPages)
	if f.rec != nil {
		f.rec.Record(obs.Event{
			Kind: obs.KindGCStart, Clock: f.clock,
			SB: int32(victim), Stream: int16(victimStream), GCClass: int16(victimClass),
			A: int64(validAtStart), B: int64(len(f.free)), F0: validRatio,
		})
	}
	for off := 0; off < f.dataPages; off++ {
		ppn := geo.SuperblockPPN(victim, off)
		st, err := f.dev.State(ppn)
		if err != nil {
			return err
		}
		if st != nand.PageValid {
			continue
		}
		lpn, oldOOB, err := f.dev.Read(ppn)
		if err != nil {
			return err
		}
		f.stats.GCPageReads++
		stream, oob := f.sep.PlaceGCWrite(lpn, oldOOB, class, f.clock)
		newPPN, err := f.allocPage(stream, class)
		if err != nil {
			return err
		}
		if err := f.dev.Program(newPPN, lpn, oob); err != nil {
			return err
		}
		if err := f.dev.Invalidate(ppn); err != nil {
			return err
		}
		sb.valid--
		f.l2p[lpn] = newPPN
		f.stats.GCPageWrites++
		f.sep.OnPagePlaced(lpn, newPPN, false)
		if err := f.closeIfFull(stream); err != nil {
			return err
		}
	}
	// Invalidate still-valid meta pages so the erase precondition holds.
	for off := f.dataPages; off < geo.PagesPerSuperblock(); off++ {
		ppn := geo.SuperblockPPN(victim, off)
		st, err := f.dev.State(ppn)
		if err != nil {
			return err
		}
		if st == nand.PageValid {
			if err := f.dev.Invalidate(ppn); err != nil {
				return err
			}
		}
	}
	if err := f.dev.EraseSuperblock(victim); err != nil {
		return err
	}
	sb.state = SBFree
	sb.stream = 0
	sb.gcClass = 0
	sb.writePtr = 0
	sb.valid = 0
	f.free = append(f.free, victim)
	f.stats.GCVictims++
	f.sep.OnSuperblockErased(victim)
	if f.rec != nil {
		f.rec.Record(obs.Event{
			Kind: obs.KindGCEnd, Clock: f.clock,
			SB: int32(victim), Stream: int16(victimStream), GCClass: int16(victimClass),
			A: int64(validAtStart), B: int64(len(f.free)), F0: validRatio,
		})
	}
	return nil
}

// CheckInvariants validates internal consistency: every mapped LPN points at
// a valid page recording that LPN, per-superblock valid counts match the
// device, and free/open/closed partitioning is coherent. Tests call it after
// workloads; it is O(device size).
func (f *FTL) CheckInvariants() error {
	geo := f.cfg.Geometry
	validBySB := make([]int, geo.Superblocks())
	for lpn, ppn := range f.l2p {
		if ppn == nand.InvalidPPN {
			continue
		}
		st, err := f.dev.State(ppn)
		if err != nil {
			return err
		}
		if st != nand.PageValid {
			return fmt.Errorf("ftl: lpn %d maps to %s page %d", lpn, st, ppn)
		}
		got, err := f.dev.LPNAt(ppn)
		if err != nil {
			return err
		}
		if got != nand.LPN(lpn) {
			return fmt.Errorf("ftl: lpn %d maps to page %d recording lpn %d", lpn, ppn, got)
		}
		validBySB[geo.SuperblockOf(ppn)]++
	}
	freeSet := map[int]bool{}
	for _, id := range f.free {
		freeSet[id] = true
	}
	for id := range f.sbs {
		sb := &f.sbs[id]
		if sb.state == SBFree != freeSet[id] {
			return fmt.Errorf("ftl: superblock %d state %d vs free-list membership %v", id, sb.state, freeSet[id])
		}
		if sb.valid != validBySB[id] {
			return fmt.Errorf("ftl: superblock %d valid count %d, l2p says %d", id, sb.valid, validBySB[id])
		}
	}
	return f.checkVictimIndex()
}
