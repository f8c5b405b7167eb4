package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// modelPage is what the differential model remembers of a programmed page.
type modelPage struct {
	state     PageState
	lpn       LPN
	oob, data []byte
}

// randPayload returns nil, an empty slice or max random bytes a sixth of the
// time each, otherwise a random length in [0, max].
func randPayload(rng *rand.Rand, max int) []byte {
	var n int
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		n = max
	default:
		n = rng.Intn(max + 1)
	}
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestPayloadsDifferential replays seeded program/read/invalidate/erase
// sequences against a map model of every page's state, identity and
// payloads. OOB lengths span 0 … OOBSize (OOBSize itself included, so a
// length type too narrow for the 256 B geometry fails), some pages carry a
// data payload, and erased blocks are reprogrammed with fresh payloads,
// shorter ones among them, which must never show bytes of the earlier cycle.
// Along the way the device's counters must conserve: the block valid counts
// sum to the pages in PageValid, and the per-die erase counts to
// Stats().Erases.
func TestPayloadsDifferential(t *testing.T) {
	geos := []Geometry{
		testGeo(),
		nonPow2Geo,
		{PageSize: 512, OOBSize: 256, PagesPerBlock: 4, BlocksPerDie: 6, Dies: 2},
	}
	for gi, g := range geos {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := MustNewDevice(g)
			model := map[PPN]modelPage{}
			writePtr := make([]int, g.TotalBlocks())
			var erases uint64
			// erasedOOB is the OOB length each page held when its block was
			// last erased; shorter counts reprograms with less than that.
			erasedOOB := map[PPN]int{}
			shorter := 0

			checkPage := func(p PPN) {
				t.Helper()
				m, ok := model[p]
				if !ok {
					if _, _, err := d.Read(p); !errors.Is(err, ErrReadFree) {
						t.Fatalf("geo %d seed %d: Read of free ppn %d: err = %v", gi, seed, p, err)
					}
					if _, _, _, err := d.ReadFull(p); !errors.Is(err, ErrReadFree) {
						t.Fatalf("geo %d seed %d: ReadFull of free ppn %d: err = %v", gi, seed, p, err)
					}
					return
				}
				lpn, data, oob, err := d.ReadFull(p)
				if err != nil || lpn != m.lpn || !bytes.Equal(oob, m.oob) || !bytes.Equal(data, m.data) {
					t.Fatalf("geo %d seed %d: ReadFull(%d) = %d, %d B data, oob %v, %v; want %d, %d B data, oob %v",
						gi, seed, p, lpn, len(data), oob, err, m.lpn, len(m.data), m.oob)
				}
				lpn, oob, err = d.Read(p)
				if err != nil || lpn != m.lpn || !bytes.Equal(oob, m.oob) {
					t.Fatalf("geo %d seed %d: Read(%d) = %d, oob %v, %v", gi, seed, p, lpn, oob, err)
				}
				if st, _ := d.State(p); st != m.state {
					t.Fatalf("geo %d seed %d: State(%d) = %v, want %v", gi, seed, p, st, m.state)
				}
			}
			conserve := func() {
				t.Helper()
				valid, blockValid := 0, 0
				for p := PPN(0); int(p) < g.TotalPages(); p++ {
					if st, _ := d.State(p); st == PageValid {
						valid++
					}
				}
				var dieErases uint64
				for die := 0; die < g.Dies; die++ {
					for blk := 0; blk < g.BlocksPerDie; blk++ {
						n, _ := d.BlockValidCount(die, blk)
						blockValid += n
					}
					n, _ := d.DieEraseCount(die)
					dieErases += n
				}
				if blockValid != valid {
					t.Fatalf("geo %d seed %d: block valid counts sum to %d, %d pages valid", gi, seed, blockValid, valid)
				}
				if s := d.Stats().Erases; dieErases != s || s != erases {
					t.Fatalf("geo %d seed %d: die erases sum to %d, Stats().Erases %d, model %d", gi, seed, dieErases, s, erases)
				}
			}

			for op := 0; op < 4000; op++ {
				blkIdx := rng.Intn(g.TotalBlocks())
				die, blk := blkIdx/g.BlocksPerDie, blkIdx%g.BlocksPerDie
				switch r := rng.Intn(10); {
				case r < 5: // program the block's next page
					if writePtr[blkIdx] == g.PagesPerBlock {
						continue
					}
					p := g.PPNOf(die, blk, writePtr[blkIdx])
					lpn := LPN(rng.Intn(1 << 20))
					oob := randPayload(rng, g.OOBSize)
					var data []byte
					if rng.Intn(4) == 0 {
						data = randPayload(rng, g.PageSize)
					}
					if err := d.ProgramFull(p, lpn, data, oob); err != nil {
						t.Fatalf("geo %d seed %d: ProgramFull(%d): %v", gi, seed, p, err)
					}
					writePtr[blkIdx]++
					if len(oob) < erasedOOB[p] {
						shorter++
					}
					m := modelPage{state: PageValid, lpn: lpn}
					if len(oob) > 0 {
						m.oob = append([]byte(nil), oob...)
					}
					if len(data) > 0 {
						m.data = append([]byte(nil), data...)
					}
					// The device copied the payloads: scribbling on the
					// caller's buffers must not reach it.
					for i := range oob {
						oob[i] ^= 0xFF
					}
					for i := range data {
						data[i] ^= 0xFF
					}
					model[p] = m
					checkPage(p)
				case r < 7: // invalidate a page of the block
					p := g.PPNOf(die, blk, rng.Intn(g.PagesPerBlock))
					m, ok := model[p]
					err := d.Invalidate(p)
					if ok && m.state == PageValid {
						if err != nil {
							t.Fatalf("geo %d seed %d: Invalidate(%d): %v", gi, seed, p, err)
						}
						m.state = PageInvalid
						model[p] = m
					} else if !errors.Is(err, ErrInvalidateState) {
						t.Fatalf("geo %d seed %d: Invalidate(%d) of a %v page: err = %v", gi, seed, p, m.state, err)
					}
				case r < 8: // migrate away whatever is valid, then erase
					for pg := 0; pg < writePtr[blkIdx]; pg++ {
						p := g.PPNOf(die, blk, pg)
						if m := model[p]; m.state == PageValid {
							if err := d.Invalidate(p); err != nil {
								t.Fatal(err)
							}
							m.state = PageInvalid
							model[p] = m
						}
					}
					if err := d.EraseBlock(die, blk); err != nil {
						t.Fatalf("geo %d seed %d: EraseBlock(%d, %d): %v", gi, seed, die, blk, err)
					}
					erases++
					for pg := 0; pg < g.PagesPerBlock; pg++ {
						p := g.PPNOf(die, blk, pg)
						erasedOOB[p] = len(model[p].oob)
						delete(model, p)
					}
					writePtr[blkIdx] = 0
				default: // read a page of the block
					checkPage(g.PPNOf(die, blk, rng.Intn(g.PagesPerBlock)))
				}
				if op%97 == 0 {
					conserve()
				}
			}
			conserve()
			for p := PPN(0); int(p) < g.TotalPages(); p++ {
				checkPage(p)
			}
			if erases == 0 || shorter == 0 {
				t.Errorf("geo %d seed %d: %d erases, %d shorter reprograms; want both > 0", gi, seed, erases, shorter)
			}
		}
	}
}

// TestAppendToReadOOBKeepsNeighbour appends to a full-length OOB slice Read
// returned: the append must copy rather than write into the next PPN's OOB,
// which sits right behind it in the device's arena.
func TestAppendToReadOOBKeepsNeighbour(t *testing.T) {
	d := MustNewDevice(testGeo())
	g := d.Geometry()
	p, next := g.PPNOf(0, 0, 0), g.PPNOf(0, 0, 1)
	first := bytes.Repeat([]byte{1}, g.OOBSize)
	second := bytes.Repeat([]byte{2}, g.OOBSize)
	if err := d.Program(p, 1, first); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(next, 2, second); err != nil {
		t.Fatal(err)
	}
	_, oob, _ := d.Read(p)
	_ = append(oob, 0xEE)
	_, data, oob, _ := d.ReadFull(p)
	_ = append(oob, 0xEE)
	_ = append(data, 0xEE)
	if _, got, _ := d.Read(next); !bytes.Equal(got, second) {
		t.Errorf("neighbour oob after append = %v, want %v", got, second)
	}
	if _, got, _ := d.Read(p); !bytes.Equal(got, first) {
		t.Errorf("oob after append = %v, want %v", got, first)
	}
}

// devicePageBytes sums cap × element size over every Device slice whose
// length is a multiple of the page count, and fails the test if one of them
// holds a non-scalar element: storage behind a header escapes the count.
func devicePageBytes(t *testing.T, d *Device) float64 {
	t.Helper()
	pages := d.Geometry().TotalPages()
	v := reflect.ValueOf(d).Elem()
	total := 0
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), v.Type().Field(i).Name
		if fv.Kind() != reflect.Slice || fv.Len() == 0 || fv.Len()%pages != 0 {
			continue
		}
		elem := fv.Type().Elem()
		switch elem.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("per-PPN slice %s holds %s: storage behind each element escapes this count", name, elem)
		}
		bytes := fv.Cap() * int(elem.Size())
		t.Logf("%-7s %5.1f B/PPN", name, float64(bytes)/float64(pages))
		total += bytes
	}
	return float64(total) / float64(pages)
}

// cycleAll programs every page of d with oob, invalidates it and erases
// every block.
func cycleAll(t *testing.T, d *Device, oob []byte) {
	t.Helper()
	g := d.Geometry()
	for die := 0; die < g.Dies; die++ {
		for blk := 0; blk < g.BlocksPerDie; blk++ {
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				p := g.PPNOf(die, blk, pg)
				if err := d.Program(p, LPN(pg), oob); err != nil {
					t.Fatal(err)
				}
				if err := d.Invalidate(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.EraseBlock(die, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDevicePageBytesCeiling pins the device's host memory per physical
// page: the PPN-indexed slices hold scalars only, a device whose pages
// never carry OOB costs at most 8 B per PPN (state and lpn), and one whose
// pages carry the paper's 36 B OOB entry at OOBSize 64 at most 72 B.
func TestDevicePageBytesCeiling(t *testing.T) {
	geo := Geometry{PageSize: 4096, OOBSize: 64, PagesPerBlock: 32, BlocksPerDie: 16, Dies: 4}
	d := MustNewDevice(geo)
	cycleAll(t, d, nil)
	if got := devicePageBytes(t, d); got > 8 {
		t.Errorf("device without OOB: %.1f B per PPN, want <= 8", got)
	}
	cycleAll(t, d, make([]byte, 36))
	cycleAll(t, d, make([]byte, 36))
	if got := devicePageBytes(t, d); got > 72 {
		t.Errorf("device with 36 B OOB: %.1f B per PPN, want <= 72", got)
	}
}

// TestDeviceProgramEraseZeroAlloc pins the steady state of a superblock's
// life on the device: once one cycle has sized the OOB arena and a data
// slot, programming a block (one data page, OOB on every page), reading it
// back, invalidating and erasing it must not allocate.
func TestDeviceProgramEraseZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := MustNewDevice(testGeo())
	g := d.Geometry()
	oob, data := make([]byte, 36), make([]byte, 1000)
	cycle := func() {
		for pg := 0; pg < g.PagesPerBlock; pg++ {
			var pd []byte
			if pg == g.PagesPerBlock-1 {
				pd = data
			}
			p := g.PPNOf(1, 2, pg)
			if err := d.ProgramFull(p, LPN(pg), pd, oob); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := d.ReadFull(p); err != nil {
				t.Fatal(err)
			}
			if err := d.Invalidate(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EraseBlock(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("program/read/erase cycle allocates %v times", allocs)
	}
}
