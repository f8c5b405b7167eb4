// Package core implements PHFTL, the paper's contribution: a flash
// translation layer with device-side learning-based data separation. It
// provides the Page Classifier (a GRU sequence model predicting whether each
// written page is short- or long-living, §III-B), the adaptive labeling and
// classification-threshold adjustment algorithm (Algorithm 1), the host-side
// Model Trainer, the flash metadata layout with its RAM metadata cache
// (§III-C), and the ftl.Separator gluing it all into the FTL framework with
// the Adjusted Greedy GC policy (§III-D).
package core

import (
	"encoding/binary"
	"fmt"

	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

// HiddenBytes is the size of the cached, 8-bit-quantized GRU hidden state
// per page (the paper's 32 B for a 32-neuron hidden layer).
const HiddenBytes = 32

// EntrySize is the per-page ML metadata footprint: 4 B last-write timestamp
// plus the quantized hidden state (the paper's 36 B, §III-C).
const EntrySize = 4 + HiddenBytes

// Entry is one page's ML metadata.
type Entry struct {
	// LastWrite is the virtual-clock value just *after* the page's last
	// write, 1-based: 0 means the page has never been written.
	LastWrite uint32
	// Hidden is the cached GRU hidden state after the last prediction.
	Hidden [HiddenBytes]int8
}

// EncodeEntry serializes an entry into dst (little-endian timestamp followed
// by the hidden state) and returns the EntrySize-byte slice.
func EncodeEntry(dst []byte, e Entry) []byte {
	if cap(dst) < EntrySize {
		dst = make([]byte, EntrySize)
	}
	dst = dst[:EntrySize]
	binary.LittleEndian.PutUint32(dst, e.LastWrite)
	for i, v := range e.Hidden {
		dst[4+i] = byte(v)
	}
	return dst
}

// DecodeEntry parses an entry from buf. Short or nil buffers decode to the
// zero entry (never-written), tolerating schemes that programmed no OOB.
func DecodeEntry(buf []byte) Entry {
	var e Entry
	if len(buf) < EntrySize {
		return e
	}
	e.LastWrite = binary.LittleEndian.Uint32(buf)
	for i := range e.Hidden {
		e.Hidden[i] = int8(buf[4+i])
	}
	return e
}

// MetaLayout computes the split of a superblock into data pages and tail
// meta pages such that the meta pages can hold one EntrySize record per data
// page (§III-C, Figure 4). entriesPerPage is how many records fit in one
// flash page.
func MetaLayout(pagesPerSB, pageSize int) (dataPages, metaPages, entriesPerPage int) {
	entriesPerPage = pageSize / EntrySize
	if entriesPerPage < 1 {
		entriesPerPage = 1
	}
	metaPages = 0
	for {
		dataPages = pagesPerSB - metaPages
		need := (dataPages + entriesPerPage - 1) / entriesPerPage
		if need <= metaPages || dataPages <= 1 {
			return dataPages, metaPages, entriesPerPage
		}
		metaPages++
	}
}

// FlashReader reads meta-page payloads from flash; the FTL implements it.
type FlashReader interface {
	ReadMetaPage(ppn nand.PPN) ([]byte, error)
}

// MetaStats counts metadata-retrieval outcomes.
type MetaStats struct {
	CacheHits   uint64 // served from the RAM meta-page cache
	CacheMisses uint64 // required a flash meta-page read
	OpenHits    uint64 // served from an open superblock's RAM buffer
	Defaults    uint64 // never-written pages (no metadata exists)
}

// HitRate returns the fraction of flash-backed retrievals served from RAM
// (the paper reports 98.2%–99.9%).
func (s MetaStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 1
	}
	return float64(s.CacheHits) / float64(total)
}

// cacheEnt is one cached meta page plus its LRU linkage (intrusive doubly
// linked list; head = most recent).
type cacheEnt struct {
	mppn       nand.PPN
	buf        []byte
	prev, next *cacheEnt
}

// MetaStore implements PHFTL's metadata management: entries for open
// superblocks accumulate in RAM buffers; when a superblock closes they are
// sealed into its tail meta pages; reads of closed-superblock metadata go
// through an on-demand RAM cache of meta pages, evicted LRU (§III-C,
// Figure 4). The paper indexes the cache with a red-black tree; a map keyed
// by MPPN serves the same lookups, and hits, misses and evictions depend
// only on the LRU order and the capacity.
type MetaStore struct {
	geo            nand.Geometry
	dataPages      int
	metaPages      int
	entriesPerPage int
	reader         FlashReader

	openBufs map[int][]Entry // superblock -> per-offset entries

	cache    map[nand.PPN]*cacheEnt
	lruHead  *cacheEnt
	lruTail  *cacheEnt
	capacity int

	// freeEnts recycles evicted cacheEnts (linked through next) and
	// entryPool recycles open-superblock Entry buffers, so steady-state GC
	// churn stops allocating. sealBufs are Seal's reusable output pages.
	freeEnts  *cacheEnt
	entryPool [][]Entry
	sealBufs  [][]byte

	stats MetaStats

	// rec, when non-nil, receives cache hit/miss/evict events stamped with
	// clockFn's virtual clock (the FTL's user-write clock).
	rec     obs.Recorder
	clockFn func() uint64
}

// NewMetaStore builds a metadata store for the geometry. cacheFrac is the
// RAM cache capacity as a fraction of the device's meta-page count (paper:
// 1%), floored at 4 pages.
func NewMetaStore(geo nand.Geometry, dataPages, metaPages, entriesPerPage int, cacheFrac float64, reader FlashReader) *MetaStore {
	totalMeta := geo.Superblocks() * metaPages
	capPages := int(cacheFrac * float64(totalMeta))
	if capPages < 4 {
		capPages = 4
	}
	return &MetaStore{
		geo:            geo,
		dataPages:      dataPages,
		metaPages:      metaPages,
		entriesPerPage: entriesPerPage,
		reader:         reader,
		openBufs:       make(map[int][]Entry),
		cache:          make(map[nand.PPN]*cacheEnt, capPages+1),
		capacity:       capPages,
	}
}

// Stats returns retrieval statistics.
func (m *MetaStore) Stats() MetaStats { return m.stats }

// SetRecorder installs a trace-event recorder. clockFn supplies the virtual
// clock stamped on events (nil stamps 0).
func (m *MetaStore) SetRecorder(r obs.Recorder, clockFn func() uint64) {
	m.rec = r
	m.clockFn = clockFn
}

func (m *MetaStore) emit(kind obs.Kind, mppn nand.PPN) {
	var clock uint64
	if m.clockFn != nil {
		clock = m.clockFn()
	}
	m.rec.Record(obs.Event{
		Kind: kind, Clock: clock,
		SB: -1, Stream: -1, GCClass: -1,
		A: int64(mppn),
	})
}

// mppnFor returns the meta-page PPN holding the entry of the data page at
// offset off of superblock sb.
func (m *MetaStore) mppnFor(sb, off int) nand.PPN {
	return m.geo.SuperblockPPN(sb, m.dataPages+off/m.entriesPerPage)
}

// Get retrieves the metadata entry for a logical page currently stored at
// ppn (its L2P mapping). InvalidPPN returns the zero entry (never written).
func (m *MetaStore) Get(ppn nand.PPN) (Entry, error) {
	if ppn == nand.InvalidPPN {
		m.stats.Defaults++
		return Entry{}, nil
	}
	sb := m.geo.SuperblockOf(ppn)
	off := m.geo.SuperblockOffset(ppn)
	if buf, ok := m.openBufs[sb]; ok {
		m.stats.OpenHits++
		return buf[off], nil
	}
	mppn := m.mppnFor(sb, off)
	page, err := m.metaPage(mppn)
	if err != nil {
		return Entry{}, err
	}
	idx := (off % m.entriesPerPage) * EntrySize
	if idx+EntrySize > len(page) {
		return Entry{}, fmt.Errorf("core: meta page %d too short for entry %d", mppn, off)
	}
	return DecodeEntry(page[idx:]), nil
}

// Invalidate clears the metadata entry of the data page at ppn (the page was
// discarded). Only entries in a still-open superblock's RAM buffer need
// zeroing: once the superblock seals, the entry is reachable only through the
// L2P mapping the FTL clears alongside this call, and the sealed flash copy
// disappears wholesale when GC erases the superblock.
func (m *MetaStore) Invalidate(ppn nand.PPN) {
	if ppn == nand.InvalidPPN {
		return
	}
	sb := m.geo.SuperblockOf(ppn)
	if buf, ok := m.openBufs[sb]; ok {
		buf[m.geo.SuperblockOffset(ppn)] = Entry{}
	}
}

// metaPage returns the cached contents of a meta page. The returned slice is
// owned by the cache and only valid until the entry is evicted or dropped;
// callers decode out of it immediately.
func (m *MetaStore) metaPage(mppn nand.PPN) ([]byte, error) {
	if ent, ok := m.cache[mppn]; ok {
		m.stats.CacheHits++
		if m.rec != nil {
			m.emit(obs.KindMetaCacheHit, mppn)
		}
		m.lruTouch(ent)
		return ent.buf, nil
	}
	m.stats.CacheMisses++
	if m.rec != nil {
		m.emit(obs.KindMetaCacheMiss, mppn)
	}
	data, err := m.reader.ReadMetaPage(mppn)
	if err != nil {
		return nil, fmt.Errorf("core: meta page read %d: %w", mppn, err)
	}
	ent := m.freeEnts
	if ent != nil {
		m.freeEnts = ent.next
		ent.next = nil
		ent.mppn = mppn
	} else {
		ent = &cacheEnt{mppn: mppn}
	}
	ent.buf = append(ent.buf[:0], data...) // copy out of device memory
	m.cache[mppn] = ent
	m.lruPush(ent)
	for len(m.cache) > m.capacity {
		m.evictLRU()
	}
	return ent.buf, nil
}

// releaseEnt returns a cacheEnt (already unlinked from LRU and index) to the
// freelist, keeping its buffer capacity for the next miss.
func (m *MetaStore) releaseEnt(e *cacheEnt) {
	e.prev = nil
	e.next = m.freeEnts
	m.freeEnts = e
}

func (m *MetaStore) lruPush(e *cacheEnt) {
	e.prev = nil
	e.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = e
	}
	m.lruHead = e
	if m.lruTail == nil {
		m.lruTail = e
	}
}

func (m *MetaStore) lruUnlink(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (m *MetaStore) lruTouch(e *cacheEnt) {
	if m.lruHead == e {
		return
	}
	m.lruUnlink(e)
	m.lruPush(e)
}

func (m *MetaStore) evictLRU() {
	victim := m.lruTail
	if victim == nil {
		return
	}
	m.lruUnlink(victim)
	delete(m.cache, victim.mppn)
	if m.rec != nil {
		m.emit(obs.KindMetaCacheEvict, victim.mppn)
	}
	m.releaseEnt(victim)
}

// Put records the metadata entry for a data page just programmed at ppn in
// its (open) superblock's RAM buffer.
func (m *MetaStore) Put(ppn nand.PPN, e Entry) {
	sb := m.geo.SuperblockOf(ppn)
	buf, ok := m.openBufs[sb]
	if !ok {
		if n := len(m.entryPool); n > 0 {
			buf = m.entryPool[n-1]
			m.entryPool = m.entryPool[:n-1]
			clear(buf)
		} else {
			buf = make([]Entry, m.dataPages)
		}
		m.openBufs[sb] = buf
	}
	buf[m.geo.SuperblockOffset(ppn)] = e
}

// Seal serializes an open superblock's buffered entries into its tail meta
// pages and releases the RAM buffer. Page p holds the entries of data pages
// p·entriesPerPage onward, and only as many as exist: the last page may be
// partial, and MetaLayout can leave a trailing page with none. The returned
// buffers are owned by the store and reused on the next Seal call: the FTL
// programs them immediately (the device copies page payloads), so nothing
// downstream retains them.
func (m *MetaStore) Seal(sb int) [][]byte {
	buf := m.openBufs[sb]
	if buf != nil {
		delete(m.openBufs, sb)
		m.entryPool = append(m.entryPool, buf)
	}
	if m.sealBufs == nil {
		m.sealBufs = make([][]byte, m.metaPages)
		for p := range m.sealBufs {
			n := min(m.entriesPerPage, max(0, m.dataPages-p*m.entriesPerPage))
			m.sealBufs[p] = make([]byte, n*EntrySize)
		}
	}
	pages := m.sealBufs
	for p, page := range pages {
		for i := 0; i < len(page)/EntrySize; i++ {
			var e Entry
			if buf != nil {
				e = buf[p*m.entriesPerPage+i]
			}
			EncodeEntry(page[i*EntrySize:i*EntrySize:(i+1)*EntrySize], e)
		}
	}
	return pages
}

// DropSB invalidates cached meta pages of an erased superblock: their MPPNs
// are about to be reused with fresh contents.
func (m *MetaStore) DropSB(sb int) {
	if buf, ok := m.openBufs[sb]; ok {
		delete(m.openBufs, sb)
		m.entryPool = append(m.entryPool, buf)
	}
	for p := 0; p < m.metaPages; p++ {
		mppn := m.geo.SuperblockPPN(sb, m.dataPages+p)
		if ent, ok := m.cache[mppn]; ok {
			m.lruUnlink(ent)
			delete(m.cache, mppn)
			m.releaseEnt(ent)
		}
	}
}
