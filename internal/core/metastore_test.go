package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

func TestMetaLayout(t *testing.T) {
	// 16 KiB pages hold 455 36-byte entries; a 256-page superblock needs
	// ceil(255/455) = 1 meta page.
	data, meta, epp := MetaLayout(256, 16384)
	if epp != 16384/EntrySize {
		t.Errorf("entriesPerPage = %d", epp)
	}
	if meta != 1 || data != 255 {
		t.Errorf("layout = %d data + %d meta", data, meta)
	}
	// Every data page must have an entry slot.
	if data > meta*epp {
		t.Errorf("meta pages hold %d entries for %d data pages", meta*epp, data)
	}
}

func TestMetaLayoutProperty(t *testing.T) {
	f := func(rawSB, rawPS uint16) bool {
		pagesPerSB := int(rawSB%512) + 2
		pageSize := (int(rawPS%64) + 1) * 256 // 256B..16KiB
		data, meta, epp := MetaLayout(pagesPerSB, pageSize)
		if data+meta != pagesPerSB || data < 1 {
			return false
		}
		// Either the meta region covers all data pages, or the layout hit
		// the degenerate floor (data == 1).
		return data <= meta*epp || data == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	var e Entry
	e.LastWrite = 0xDEADBEEF
	for i := range e.Hidden {
		e.Hidden[i] = int8(i - 16)
	}
	buf := EncodeEntry(nil, e)
	if len(buf) != EntrySize {
		t.Fatalf("len = %d", len(buf))
	}
	got := DecodeEntry(buf)
	if got != e {
		t.Fatalf("round trip: got %+v want %+v", got, e)
	}
	// Short and nil buffers decode to the zero entry.
	if DecodeEntry(nil) != (Entry{}) || DecodeEntry(buf[:10]) != (Entry{}) {
		t.Error("short buffers must decode to zero entry")
	}
}

func TestEntryRoundTripProperty(t *testing.T) {
	f := func(lw uint32, h [HiddenBytes]int8) bool {
		e := Entry{LastWrite: lw, Hidden: h}
		return DecodeEntry(EncodeEntry(nil, e)) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fakeReader serves meta pages from a map and counts reads.
type fakeReader struct {
	pages map[nand.PPN][]byte
	reads int
}

func (f *fakeReader) ReadMetaPage(ppn nand.PPN) ([]byte, error) {
	f.reads++
	buf, ok := f.pages[ppn]
	if !ok {
		return nil, fmt.Errorf("fake: no page %d", ppn)
	}
	return buf, nil
}

func metaTestGeo() nand.Geometry {
	// 8 dies x 4 pages/block: 32-page superblocks; 1440-byte pages hold 40
	// entries, so MetaLayout gives 31 data + 1 meta.
	return nand.Geometry{PageSize: 1440, OOBSize: 64, PagesPerBlock: 4, BlocksPerDie: 64, Dies: 8}
}

func TestMetaStoreOpenBufferAndSeal(t *testing.T) {
	geo := metaTestGeo()
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	rd := &fakeReader{pages: map[nand.PPN][]byte{}}
	ms := NewMetaStore(geo, data, meta, epp, 0.01, rd)

	// Fill superblock 3's data region with entries.
	want := make([]Entry, data)
	for off := 0; off < data; off++ {
		e := Entry{LastWrite: uint32(off + 1)}
		e.Hidden[0] = int8(off % 100)
		want[off] = e
		ms.Put(geo.SuperblockPPN(3, off), e)
	}
	// While open, Get serves from the RAM buffer with no flash reads.
	for off := 0; off < data; off++ {
		got, err := ms.Get(geo.SuperblockPPN(3, off))
		if err != nil {
			t.Fatal(err)
		}
		if got != want[off] {
			t.Fatalf("open get off %d: %+v != %+v", off, got, want[off])
		}
	}
	if rd.reads != 0 {
		t.Fatalf("open gets caused %d flash reads", rd.reads)
	}
	if ms.Stats().OpenHits != uint64(data) {
		t.Errorf("open hits = %d", ms.Stats().OpenHits)
	}

	// Seal: entries now live in meta pages. Seal's buffers are reused on
	// the next call, so the fake flash (which retains them, unlike the FTL,
	// which programs immediately) must copy.
	pages := ms.Seal(3)
	if len(pages) != meta {
		t.Fatalf("sealed %d pages, want %d", len(pages), meta)
	}
	for i, buf := range pages {
		rd.pages[geo.SuperblockPPN(3, data+i)] = append([]byte(nil), buf...)
	}
	// First access misses (flash read), subsequent entries in the same meta
	// page hit the cache — the paper's batching locality.
	for off := 0; off < data; off++ {
		got, err := ms.Get(geo.SuperblockPPN(3, off))
		if err != nil {
			t.Fatal(err)
		}
		if got != want[off] {
			t.Fatalf("closed get off %d: %+v != %+v", off, got, want[off])
		}
	}
	if rd.reads != meta {
		t.Fatalf("closed gets caused %d flash reads, want %d", rd.reads, meta)
	}
	s := ms.Stats()
	if s.CacheMisses != uint64(meta) {
		t.Errorf("misses = %d", s.CacheMisses)
	}
	if s.CacheHits != uint64(data-meta) {
		t.Errorf("hits = %d, want %d", s.CacheHits, data-meta)
	}
	if hr := s.HitRate(); hr < 0.9 {
		t.Errorf("hit rate = %.3f", hr)
	}
}

// TestMetaStoreSealPartialPages: Seal writes only the superblock's
// dataPages entries, so a last meta page may be partial and a trailing one
// empty (MetaLayout leaves one when pagesPerSB = entriesPerPage + 2); every
// entry still round-trips through Seal and Get.
func TestMetaStoreSealPartialPages(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ppb, dies int
		wantSizes []int // entries per meta page
	}{
		{"empty trailing page", 3, 2, []int{4, 0}}, // 6 pages: 4 data + 2 meta
		{"partial last page", 4, 2, []int{4, 2}},   // 8 pages: 6 data + 2 meta
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := nand.Geometry{PageSize: 4 * EntrySize, OOBSize: 64, PagesPerBlock: tc.ppb, BlocksPerDie: 8, Dies: tc.dies}
			data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
			rd := &fakeReader{pages: map[nand.PPN][]byte{}}
			ms := NewMetaStore(geo, data, meta, epp, 0.01, rd)
			for off := 0; off < data; off++ {
				ms.Put(geo.SuperblockPPN(1, off), Entry{LastWrite: uint32(100 + off)})
			}
			pages := ms.Seal(1)
			if len(pages) != len(tc.wantSizes) {
				t.Fatalf("sealed %d pages, want %d", len(pages), len(tc.wantSizes))
			}
			for p, buf := range pages {
				if len(buf) != tc.wantSizes[p]*EntrySize {
					t.Fatalf("page %d is %d bytes, want %d entries", p, len(buf), tc.wantSizes[p])
				}
				rd.pages[geo.SuperblockPPN(1, data+p)] = append([]byte(nil), buf...)
			}
			for off := 0; off < data; off++ {
				got, err := ms.Get(geo.SuperblockPPN(1, off))
				if err != nil {
					t.Fatal(err)
				}
				if got.LastWrite != uint32(100+off) {
					t.Fatalf("off %d: LastWrite %d, want %d", off, got.LastWrite, 100+off)
				}
			}
		})
	}
}

func TestMetaStoreDefaultEntry(t *testing.T) {
	geo := metaTestGeo()
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	ms := NewMetaStore(geo, data, meta, epp, 0.01, &fakeReader{})
	got, err := ms.Get(nand.InvalidPPN)
	if err != nil {
		t.Fatal(err)
	}
	if got != (Entry{}) {
		t.Errorf("default entry = %+v", got)
	}
	if ms.Stats().Defaults != 1 {
		t.Errorf("defaults = %d", ms.Stats().Defaults)
	}
}

func TestMetaStoreLRUEviction(t *testing.T) {
	geo := metaTestGeo()
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	rd := &fakeReader{pages: map[nand.PPN][]byte{}}
	ms := NewMetaStore(geo, data, meta, epp, 0.0, rd) // floor: 4 pages
	if ms.capacity != 4 {
		t.Fatalf("capacity = %d, want floor 4", ms.capacity)
	}
	// Seal 6 superblocks and touch one entry in each.
	for sb := 0; sb < 6; sb++ {
		ms.Put(geo.SuperblockPPN(sb, 0), Entry{LastWrite: uint32(sb + 1)})
		for i, buf := range ms.Seal(sb) {
			rd.pages[geo.SuperblockPPN(sb, data+i)] = append([]byte(nil), buf...)
		}
	}
	for sb := 0; sb < 6; sb++ {
		if _, err := ms.Get(geo.SuperblockPPN(sb, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ms.cache) > 4 {
		t.Fatalf("cache len = %d exceeds capacity", len(ms.cache))
	}
	// Superblock 0's meta page was evicted (LRU): re-access misses again.
	before := rd.reads
	if _, err := ms.Get(geo.SuperblockPPN(0, 0)); err != nil {
		t.Fatal(err)
	}
	if rd.reads != before+1 {
		t.Error("expected a flash read after LRU eviction")
	}
	// Most-recent superblock 5 is still cached.
	before = rd.reads
	if _, err := ms.Get(geo.SuperblockPPN(5, 0)); err != nil {
		t.Fatal(err)
	}
	if rd.reads != before {
		t.Error("expected a cache hit for the most recent meta page")
	}
}

func TestMetaStoreDropSB(t *testing.T) {
	geo := metaTestGeo()
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	rd := &fakeReader{pages: map[nand.PPN][]byte{}}
	ms := NewMetaStore(geo, data, meta, epp, 0.5, rd)
	ms.Put(geo.SuperblockPPN(2, 0), Entry{LastWrite: 7})
	for i, buf := range ms.Seal(2) {
		rd.pages[geo.SuperblockPPN(2, data+i)] = append([]byte(nil), buf...)
	}
	if _, err := ms.Get(geo.SuperblockPPN(2, 0)); err != nil {
		t.Fatal(err)
	}
	if len(ms.cache) == 0 {
		t.Fatal("expected cached page")
	}
	ms.DropSB(2)
	if len(ms.cache) != 0 {
		t.Fatalf("cache len after drop = %d", len(ms.cache))
	}
	// Re-access must read flash again (simulating post-erase reuse).
	before := rd.reads
	if _, err := ms.Get(geo.SuperblockPPN(2, 0)); err != nil {
		t.Fatal(err)
	}
	if rd.reads != before+1 {
		t.Error("stale cache served after DropSB")
	}
}

func TestMetaStoreSealUnknownSB(t *testing.T) {
	geo := metaTestGeo()
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	ms := NewMetaStore(geo, data, meta, epp, 0.01, &fakeReader{})
	pages := ms.Seal(9) // never Put: all-zero entries
	if len(pages) != meta {
		t.Fatalf("pages = %d", len(pages))
	}
	if DecodeEntry(pages[0]) != (Entry{}) {
		t.Error("expected zero entries for unwritten superblock")
	}
}

func TestMPPNFor(t *testing.T) {
	geo := metaTestGeo()
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	ms := NewMetaStore(geo, data, meta, epp, 0.01, &fakeReader{})
	// Entries 0..epp-1 share the first meta page.
	first := ms.mppnFor(1, 0)
	if got := geo.SuperblockOf(first); got != 1 {
		t.Errorf("meta page in sb %d", got)
	}
	if off := geo.SuperblockOffset(first); off != data {
		t.Errorf("meta page at offset %d, want %d", off, data)
	}
	if epp > 1 {
		second := ms.mppnFor(1, 1)
		if second != first {
			t.Error("adjacent entries should share a meta page")
		}
	}
}

// eventLog records every event it receives.
type eventLog struct{ evs []obs.Event }

func (l *eventLog) Record(ev obs.Event) { l.evs = append(l.evs, ev) }

// metaModel is the naive reference MetaStore: entry contents in a map keyed
// by data PPN, superblock states, and the cache as a slice of MPPNs scanned
// linearly, most recent first.
type metaModel struct {
	geo                 nand.Geometry
	dataPages, epp, cap int

	entries map[nand.PPN]Entry
	state   []int // sbFree, sbOpen or sbSealed
	lru     []nand.PPN
	stats   MetaStats
	evs     []obs.Event
}

const (
	sbFree = iota
	sbOpen
	sbSealed
)

func (m *metaModel) emit(kind obs.Kind, mppn nand.PPN) {
	m.evs = append(m.evs, obs.Event{Kind: kind, A: int64(mppn)})
}

// get mirrors MetaStore.Get; ok is false where the store must return an
// error (a meta page with nothing on flash).
func (m *metaModel) get(ppn nand.PPN, flash map[nand.PPN][]byte) (e Entry, ok bool) {
	if ppn == nand.InvalidPPN {
		m.stats.Defaults++
		return Entry{}, true
	}
	sb, off := m.geo.SuperblockOf(ppn), m.geo.SuperblockOffset(ppn)
	if m.state[sb] == sbOpen {
		m.stats.OpenHits++
		return m.entries[ppn], true
	}
	mppn := m.geo.SuperblockPPN(sb, m.dataPages+off/m.epp)
	if i := slices.Index(m.lru, mppn); i >= 0 {
		m.stats.CacheHits++
		m.emit(obs.KindMetaCacheHit, mppn)
		m.lru = slices.Insert(slices.Delete(m.lru, i, i+1), 0, mppn)
		return m.entries[ppn], true
	}
	m.stats.CacheMisses++
	m.emit(obs.KindMetaCacheMiss, mppn)
	if _, onFlash := flash[mppn]; !onFlash {
		return Entry{}, false
	}
	m.lru = slices.Insert(m.lru, 0, mppn)
	if len(m.lru) > m.cap {
		victim := m.lru[len(m.lru)-1]
		m.lru = m.lru[:len(m.lru)-1]
		m.emit(obs.KindMetaCacheEvict, victim)
	}
	return m.entries[ppn], true
}

// dropSB mirrors MetaStore.DropSB: the superblock's cached meta pages leave
// the cache without an evict event.
func (m *metaModel) dropSB(sb int) {
	for off := 0; off < m.dataPages; off++ {
		delete(m.entries, m.geo.SuperblockPPN(sb, off))
	}
	m.lru = slices.DeleteFunc(m.lru, func(p nand.PPN) bool { return m.geo.SuperblockOf(p) == sb })
	m.state[sb] = sbFree
}

// TestMetaStoreMatchesModel drives MetaStore and metaModel with the same
// seeded random sequences of Put, Seal, Get, Invalidate and DropSB — in the
// FTL's superblock lifecycle (free -> open -> sealed -> dropped -> free) —
// against a cache of 4–8 pages, so evictions are frequent. After every
// operation the returned entry, Stats, the cache size and the cache events must
// agree.
func TestMetaStoreMatchesModel(t *testing.T) {
	// 360-byte pages hold 10 entries, so a 32-page superblock splits into
	// 29 data + 3 meta pages; 16 superblocks give 48 meta pages.
	geo := nand.Geometry{PageSize: 360, OOBSize: 64, PagesPerBlock: 4, BlocksPerDie: 16, Dies: 8}
	data, meta, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	if data != 29 || meta != 3 || epp != 10 {
		t.Fatalf("layout = %d data + %d meta, %d per page", data, meta, epp)
	}
	nSB := geo.Superblocks()
	totalMeta := nSB * meta
	const ops = 20000
	for seed := int64(1); seed <= 5; seed++ {
		capacity := 3 + int(seed) // 4..8
		rd := &fakeReader{pages: map[nand.PPN][]byte{}}
		ms := NewMetaStore(geo, data, meta, epp, (float64(capacity)+0.5)/float64(totalMeta), rd)
		if ms.capacity != capacity {
			t.Fatalf("seed %d: capacity = %d, want %d", seed, ms.capacity, capacity)
		}
		log := &eventLog{}
		ms.SetRecorder(log, nil)
		mod := &metaModel{
			geo: geo, dataPages: data, epp: epp, cap: capacity,
			entries: map[nand.PPN]Entry{}, state: make([]int, nSB),
		}
		rng := rand.New(rand.NewSource(seed))
		last := geo.SuperblockPPN(0, 0)
		for i := 0; i < ops; i++ {
			sb := rng.Intn(nSB)
			ppn := geo.SuperblockPPN(sb, rng.Intn(data))
			r := rng.Intn(100)
			if r < 38 && mod.state[sb] == sbSealed {
				r = 99 // a sealed superblock takes no Put or Seal until dropped
			}
			var what string
			switch {
			case r < 30:
				what = "Put"
				e := Entry{LastWrite: uint32(i + 1)}
				e.Hidden[rng.Intn(HiddenBytes)] = int8(rng.Intn(256) - 128)
				ms.Put(ppn, e)
				mod.entries[ppn] = e
				mod.state[sb] = sbOpen
			case r < 38:
				what = "Seal"
				pages := ms.Seal(sb)
				if len(pages) != meta {
					t.Fatalf("seed %d op %d: Seal(%d) gave %d pages", seed, i, sb, len(pages))
				}
				for p, buf := range pages {
					if n := min(epp, data-p*epp); len(buf) != n*EntrySize {
						t.Fatalf("seed %d op %d: Seal(%d) page %d is %d bytes, want %d entries", seed, i, sb, p, len(buf), n)
					}
					for k := 0; k < len(buf)/EntrySize; k++ {
						want := mod.entries[geo.SuperblockPPN(sb, p*epp+k)]
						if got := DecodeEntry(buf[k*EntrySize:]); got != want {
							t.Fatalf("seed %d op %d: Seal(%d) page %d slot %d = %+v, want %+v", seed, i, sb, p, k, got, want)
						}
					}
					rd.pages[geo.SuperblockPPN(sb, data+p)] = append([]byte(nil), buf...)
				}
				mod.state[sb] = sbSealed
			case r < 40:
				what = "DropSB"
				ms.DropSB(sb)
				for p := 0; p < meta; p++ {
					delete(rd.pages, geo.SuperblockPPN(sb, data+p))
				}
				mod.dropSB(sb)
			case r < 46:
				what = "Invalidate"
				if r == 40 {
					ppn = nand.InvalidPPN
				}
				ms.Invalidate(ppn)
				if ppn != nand.InvalidPPN && mod.state[sb] == sbOpen {
					mod.entries[ppn] = Entry{}
				}
			default:
				what = "Get"
				switch {
				case r < 50:
					ppn = nand.InvalidPPN
				case r < 80:
					// Revisit the last Get's superblock: neighbouring
					// entries share meta pages, so these mostly hit.
					ppn = geo.SuperblockPPN(geo.SuperblockOf(last), rng.Intn(data))
				}
				if ppn != nand.InvalidPPN {
					last = ppn
				}
				got, err := ms.Get(ppn)
				want, ok := mod.get(ppn, rd.pages)
				if (err == nil) != ok {
					t.Fatalf("seed %d op %d: Get(%d) err = %v, model ok = %v", seed, i, ppn, err, ok)
				}
				if got != want {
					t.Fatalf("seed %d op %d: Get(%d) = %+v, want %+v", seed, i, ppn, got, want)
				}
			}
			if got := ms.Stats(); got != mod.stats {
				t.Fatalf("seed %d op %d (%s): Stats = %+v, want %+v", seed, i, what, got, mod.stats)
			}
			if got := len(ms.cache); got != len(mod.lru) {
				t.Fatalf("seed %d op %d (%s): cache len = %d, want %d", seed, i, what, got, len(mod.lru))
			}
			if len(log.evs) != len(mod.evs) {
				t.Fatalf("seed %d op %d (%s): %d events, want %d", seed, i, what, len(log.evs), len(mod.evs))
			}
			for k, ev := range log.evs {
				if ev.Kind != mod.evs[k].Kind || ev.A != mod.evs[k].A {
					t.Fatalf("seed %d op %d (%s): event %d = %v@%d, want %v@%d", seed, i, what, k, ev.Kind, ev.A, mod.evs[k].Kind, mod.evs[k].A)
				}
			}
			log.evs, mod.evs = log.evs[:0], mod.evs[:0]
		}
		s := mod.stats
		t.Logf("seed %d cap %d: %d hits, %d misses, %d open hits, %d defaults", seed, capacity, s.CacheHits, s.CacheMisses, s.OpenHits, s.Defaults)
		if s.CacheHits == 0 || s.CacheMisses <= uint64(capacity) || s.OpenHits == 0 || s.Defaults == 0 {
			t.Errorf("seed %d: sequence left a path unexercised: %+v", seed, s)
		}
	}
}
