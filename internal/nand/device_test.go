package nand

import (
	"errors"
	"testing"
)

func TestProgramReadRoundTrip(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(0, 0, 0)
	oob := []byte{1, 2, 3, 4}
	if err := d.Program(p, 42, oob); err != nil {
		t.Fatalf("Program: %v", err)
	}
	lpn, got, err := d.Read(p)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if lpn != 42 {
		t.Errorf("lpn = %d, want 42", lpn)
	}
	if string(got) != string(oob) {
		t.Errorf("oob = %v, want %v", got, oob)
	}
	st, _ := d.State(p)
	if st != PageValid {
		t.Errorf("state = %v, want valid", st)
	}
}

func TestProgramEnforcesSequentialOrder(t *testing.T) {
	d := MustNewDevice(testGeo())
	g := d.Geometry()
	// Page 1 before page 0 must fail.
	if err := d.Program(g.PPNOf(0, 0, 1), 1, nil); !errors.Is(err, ErrNotSequential) {
		t.Fatalf("out-of-order program: err = %v, want ErrNotSequential", err)
	}
	if err := d.Program(g.PPNOf(0, 0, 0), 1, nil); err != nil {
		t.Fatalf("in-order program: %v", err)
	}
	if err := d.Program(g.PPNOf(0, 0, 1), 2, nil); err != nil {
		t.Fatalf("next in-order program: %v", err)
	}
}

func TestProgramRejectsNonFreePage(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(0, 0, 0)
	if err := d.Program(p, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(p, 2, nil); !errors.Is(err, ErrNotFree) {
		t.Fatalf("reprogram: err = %v, want ErrNotFree", err)
	}
}

func TestProgramRejectsOversizeOOB(t *testing.T) {
	d := MustNewDevice(testGeo())
	big := make([]byte, d.Geometry().OOBSize+1)
	err := d.Program(d.Geometry().PPNOf(0, 0, 0), 1, big)
	if !errors.Is(err, ErrOOBTooLarge) {
		t.Fatalf("err = %v, want ErrOOBTooLarge", err)
	}
}

func TestReadFreePageFails(t *testing.T) {
	d := MustNewDevice(testGeo())
	if _, _, err := d.Read(d.Geometry().PPNOf(0, 0, 0)); !errors.Is(err, ErrReadFree) {
		t.Fatalf("err = %v, want ErrReadFree", err)
	}
}

func TestInvalidateTransitions(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(0, 0, 0)
	if err := d.Invalidate(p); !errors.Is(err, ErrInvalidateState) {
		t.Fatalf("invalidate free: err = %v, want ErrInvalidateState", err)
	}
	if err := d.Program(p, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(p); err != nil {
		t.Fatalf("invalidate valid: %v", err)
	}
	st, _ := d.State(p)
	if st != PageInvalid {
		t.Errorf("state = %v, want invalid", st)
	}
	if err := d.Invalidate(p); !errors.Is(err, ErrInvalidateState) {
		t.Fatalf("double invalidate: err = %v, want ErrInvalidateState", err)
	}
	// Invalid pages remain readable (stale data).
	if _, _, err := d.Read(p); err != nil {
		t.Fatalf("read invalid page: %v", err)
	}
}

func TestEraseRefusesValidPages(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(0, 0, 0)
	if err := d.Program(p, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(0, 0); !errors.Is(err, ErrEraseValid) {
		t.Fatalf("erase with valid page: err = %v, want ErrEraseValid", err)
	}
	if err := d.Invalidate(p); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(0, 0); err != nil {
		t.Fatalf("erase after invalidate: %v", err)
	}
	st, _ := d.State(p)
	if st != PageFree {
		t.Errorf("post-erase state = %v, want free", st)
	}
	if c, _ := d.EraseCount(0, 0); c != 1 {
		t.Errorf("erase count = %d, want 1", c)
	}
	// Erased block can be programmed again from page 0.
	if err := d.Program(p, 7, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestEraseSuperblock(t *testing.T) {
	d := MustNewDevice(testGeo())
	g := d.Geometry()
	// Fill superblock 2 via round-robin offsets, then invalidate everything.
	for off := 0; off < g.PagesPerSuperblock(); off++ {
		p := g.SuperblockPPN(2, off)
		if err := d.Program(p, LPN(off), nil); err != nil {
			t.Fatalf("program off %d: %v", off, err)
		}
	}
	if n, _ := d.SuperblockValidCount(2); n != g.PagesPerSuperblock() {
		t.Fatalf("valid count = %d, want %d", n, g.PagesPerSuperblock())
	}
	for off := 0; off < g.PagesPerSuperblock(); off++ {
		if err := d.Invalidate(g.SuperblockPPN(2, off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.EraseSuperblock(2); err != nil {
		t.Fatalf("EraseSuperblock: %v", err)
	}
	if n, _ := d.SuperblockValidCount(2); n != 0 {
		t.Errorf("valid count after erase = %d", n)
	}
	if got := d.Stats().Erases; got != uint64(g.Dies) {
		t.Errorf("erases = %d, want %d", got, g.Dies)
	}
}

func TestOutOfRangeAddresses(t *testing.T) {
	d := MustNewDevice(testGeo())
	// One past the last page, and the sentinel an unmapped LPN resolves to.
	for _, bad := range []PPN{PPN(d.Geometry().TotalPages()), InvalidPPN} {
		errs := map[string]error{
			"program":      d.Program(bad, 0, nil),
			"program full": d.ProgramFull(bad, 0, nil, nil),
			"invalidate":   d.Invalidate(bad),
		}
		_, _, errs["read"] = d.Read(bad)
		_, _, _, errs["read full"] = d.ReadFull(bad)
		_, errs["state"] = d.State(bad)
		_, errs["lpn at"] = d.LPNAt(bad)
		for op, err := range errs {
			if !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s(%d): err = %v, want ErrOutOfRange", op, bad, err)
			}
		}
	}
	if st := d.Stats(); st != (Stats{}) {
		t.Errorf("refused operations were counted: %+v", st)
	}
	if err := d.EraseBlock(99, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("erase: err = %v, want ErrOutOfRange", err)
	}
	if err := d.EraseSuperblock(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("erase sb: err = %v, want ErrOutOfRange", err)
	}
}

// TestFlatLayoutAddressing fills a device and checks that the PPN-indexed
// page records and the die-major block array resolve every address the way
// Geometry does — with a power-of-two PagesPerBlock (shift and mask) and
// without (division) — and that an erase resets exactly one block's pages.
func TestFlatLayoutAddressing(t *testing.T) {
	for _, g := range []Geometry{testGeo(), nonPow2Geo} {
		d := MustNewDevice(g)
		lpnOf := func(p PPN) LPN { return LPN(p)*7 + 1 }
		check := func(p PPN, want PageState) {
			t.Helper()
			st, err := d.State(p)
			if err != nil || st != want {
				t.Fatalf("ppn %d: State = %v, %v; want %v", p, st, err, want)
			}
			if want == PageFree {
				if _, err := d.LPNAt(p); !errors.Is(err, ErrReadFree) {
					t.Fatalf("ppn %d: LPNAt of a free page: err = %v", p, err)
				}
				if d.lpn[p] != 0 || d.oobLen[p] != 0 || d.dataOf(p) != nil {
					t.Fatalf("ppn %d: free page keeps lpn %d, oob length %d, data %v", p, d.lpn[p], d.oobLen[p], d.dataOf(p))
				}
				return
			}
			lpn, oob, err := d.Read(p)
			at, atErr := d.LPNAt(p)
			if err != nil || atErr != nil || lpn != lpnOf(p) || at != lpn {
				t.Fatalf("ppn %d: Read lpn %d (%v), LPNAt %d (%v); want %d", p, lpn, err, at, atErr, lpnOf(p))
			}
			if len(oob) != 2 || oob[0] != byte(p) || oob[1] != byte(p>>8) {
				t.Fatalf("ppn %d: Read oob %v", p, oob)
			}
		}
		for sb := 0; sb < g.Superblocks(); sb++ {
			for off := 0; off < g.PagesPerSuperblock(); off++ {
				p := g.SuperblockPPN(sb, off)
				if err := d.Program(p, lpnOf(p), []byte{byte(p), byte(p >> 8)}); err != nil {
					t.Fatalf("program ppn %d: %v", p, err)
				}
				if got := d.SuperblockOf(p); got != sb {
					t.Fatalf("Device.SuperblockOf(%d) = %d, want %d", p, got, sb)
				}
			}
		}
		for p := PPN(0); int(p) < g.TotalPages(); p++ {
			check(p, PageValid)
		}
		const die, blk = 1, 2
		for pg := 0; pg < g.PagesPerBlock; pg++ {
			if err := d.Invalidate(g.PPNOf(die, blk, pg)); err != nil {
				t.Fatal(err)
			}
		}
		for dd := 0; dd < g.Dies; dd++ {
			for bb := 0; bb < g.BlocksPerDie; bb++ {
				want := g.PagesPerBlock
				if dd == die && bb == blk {
					want = 0
				}
				if n, _ := d.BlockValidCount(dd, bb); n != want {
					t.Fatalf("block (%d,%d): %d valid pages, want %d", dd, bb, n, want)
				}
			}
		}
		if err := d.EraseBlock(die, blk); err != nil {
			t.Fatal(err)
		}
		for p := PPN(0); int(p) < g.TotalPages(); p++ {
			want := PageValid
			if dd, bb, _ := g.Split(p); dd == die && bb == blk {
				want = PageFree
			}
			check(p, want)
		}
	}
}

func TestStatsAndOpHook(t *testing.T) {
	d := MustNewDevice(testGeo())
	g := d.Geometry()
	var hooks []OpKind
	d.SetOpHook(func(k OpKind, p PPN) { hooks = append(hooks, k) })
	p := g.PPNOf(0, 0, 0)
	if err := d.Program(p, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(p); err != nil {
		t.Fatal(err)
	}
	if err := d.Invalidate(p); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(0, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Errorf("stats = %+v, want 1/1/1", s)
	}
	want := []OpKind{OpProgram, OpRead, OpErase}
	if len(hooks) != len(want) {
		t.Fatalf("hook calls = %v, want %v", hooks, want)
	}
	for i := range want {
		if hooks[i] != want[i] {
			t.Errorf("hook[%d] = %v, want %v", i, hooks[i], want[i])
		}
	}
}

func TestOOBIsCopied(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(0, 0, 0)
	oob := []byte{9, 9}
	if err := d.Program(p, 1, oob); err != nil {
		t.Fatal(err)
	}
	oob[0] = 0 // mutate caller's buffer
	_, got, _ := d.Read(p)
	if got[0] != 9 {
		t.Error("device OOB aliased caller buffer; want a copy")
	}
}

func TestWearTracking(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(1, 3, 0)
	for i := 0; i < 5; i++ {
		if err := d.Program(p, LPN(i), nil); err != nil {
			t.Fatal(err)
		}
		if err := d.Invalidate(p); err != nil {
			t.Fatal(err)
		}
		if err := d.EraseBlock(1, 3); err != nil {
			t.Fatal(err)
		}
	}
	if c, _ := d.EraseCount(1, 3); c != 5 {
		t.Errorf("erase count = %d, want 5", c)
	}
	if d.MaxEraseCount() != 5 {
		t.Errorf("MaxEraseCount = %d, want 5", d.MaxEraseCount())
	}
}

func TestStateStrings(t *testing.T) {
	if PageFree.String() != "free" || PageValid.String() != "valid" || PageInvalid.String() != "invalid" {
		t.Error("PageState strings wrong")
	}
	if OpRead.String() != "read" || OpProgram.String() != "program" || OpErase.String() != "erase" {
		t.Error("OpKind strings wrong")
	}
}

func TestProgramFullReadFull(t *testing.T) {
	d := MustNewDevice(testGeo())
	p := d.Geometry().PPNOf(0, 0, 0)
	data := make([]byte, 1000)
	data[0] = 0x5A
	oob := []byte{1, 2, 3}
	if err := d.ProgramFull(p, 7, data, oob); err != nil {
		t.Fatal(err)
	}
	lpn, gotData, gotOOB, err := d.ReadFull(p)
	if err != nil {
		t.Fatal(err)
	}
	if lpn != 7 || gotData[0] != 0x5A || len(gotData) != 1000 || gotOOB[1] != 2 {
		t.Errorf("ReadFull = %d, %d bytes, oob %v", lpn, len(gotData), gotOOB)
	}
	// Oversized data payload is rejected.
	big := make([]byte, d.Geometry().PageSize+1)
	if err := d.ProgramFull(d.Geometry().PPNOf(0, 0, 1), 8, big, nil); !errors.Is(err, ErrDataTooLarge) {
		t.Errorf("oversize data: err = %v", err)
	}
	// ReadFull of a free page fails.
	if _, _, _, err := d.ReadFull(d.Geometry().PPNOf(1, 0, 0)); !errors.Is(err, ErrReadFree) {
		t.Errorf("free ReadFull: err = %v", err)
	}
	// Data payload is copied.
	data[0] = 0
	_, gotData, _, _ = d.ReadFull(p)
	if gotData[0] != 0x5A {
		t.Error("data payload aliased caller buffer")
	}
}
