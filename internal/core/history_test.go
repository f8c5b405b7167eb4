package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/phftl/phftl/internal/ml"
	"github.com/phftl/phftl/internal/nand"
)

// digitVec is a feature vector of digit values whose digit j is (k+j)%16.
func digitVec(k int) []float64 {
	x := make([]float64, InputDim)
	for j := range x {
		x[j] = digitValue[(k+j)%16]
	}
	return x
}

// decodeHist returns lpn's history decoded oldest first.
func decodeHist(p *PHFTL, lpn uint32) [][]float64 {
	buf := make([]byte, p.opts.SeqLen*rowBytes)
	rows := p.copyHist(buf, lpn)
	out := make([][]float64, rows)
	for r := range out {
		out[r] = make([]float64, InputDim)
		unpackRow(out[r], buf[r*rowBytes:(r+1)*rowBytes])
	}
	return out
}

// sameBits reports whether two histories hold the same float64 bits.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestFeatureRing(t *testing.T) {
	opts := DefaultOptions()
	opts.SeqLen = 3
	p, err := New(phftlGeo(), 1000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.histN[4] != 0 || len(decodeHist(p, 4)) != 0 {
		t.Fatalf("fresh history n = %d", p.histN[4])
	}
	for k := 1; k <= 5; k++ {
		p.appendHist(4, digitVec(k))
	}
	// Oldest first: 3, 4, 5.
	snap := decodeHist(p, 4)
	if want := [][]float64{digitVec(3), digitVec(4), digitVec(5)}; !sameBits(snap, want) {
		t.Fatalf("history = %v, want %v", snap, want)
	}
	// The copy is the caller's: overwriting it leaves the ring intact.
	buf := make([]byte, opts.SeqLen*rowBytes)
	p.copyHist(buf, 4)
	clear(buf)
	if again := decodeHist(p, 4); !sameBits(again, snap) {
		t.Error("copy aliases ring storage")
	}
	// A partly filled ring yields only its rows; neighbours are untouched.
	p.appendHist(5, digitVec(1))
	p.appendHist(5, digitVec(2))
	if got := decodeHist(p, 5); !sameBits(got, [][]float64{digitVec(1), digitVec(2)}) {
		t.Errorf("partial history = %v", got)
	}
	if !sameBits(decodeHist(p, 4), snap) {
		t.Error("appending to LPN 5 changed LPN 4's history")
	}
}

// TestPackedDigitRoundTrip packs every digit value the encoders can emit at
// every feature position and decodes the same float64 bits.
func TestPackedDigitRoundTrip(t *testing.T) {
	values := make([]float64, 0, 18)
	for d := uint64(0); d < 16; d++ {
		values = ml.HexDigits(values, d, 1)
	}
	values = ml.Bit(values, true)
	values = ml.Bit(values, false)
	row := make([]byte, rowBytes)
	x := make([]float64, InputDim)
	got := make([]float64, InputDim)
	for _, v := range values {
		for pos := 0; pos < InputDim; pos++ {
			for j := range x {
				x[j] = digitValue[(j*7)%16] // busy neighbours
			}
			x[pos] = v
			packRow(row, x)
			unpackRow(got, row)
			for j := range x {
				if math.Float64bits(got[j]) != math.Float64bits(x[j]) {
					t.Fatalf("value %v at position %d: decoded x[%d] = %v, want %v", v, pos, j, got[j], x[j])
				}
			}
		}
	}
}

// TestHistoryMatchesEncode is the packed history's property test: over
// random LPNs and random feature inputs (saturating lifetimes, request sizes,
// chunk counters and read/write ratios), through ring wraparound, trims and
// the example reservoir, every decoded history equals the FeatureExtractor's
// own Encode outputs bit for bit, and the row count never leaves
// [0, 2*SeqLen), so it cannot wrap however often a page is written.
func TestHistoryMatchesEncode(t *testing.T) {
	for _, seqLen := range []int{1, 3, 8} {
		opts := DefaultOptions()
		opts.SeqLen = seqLen
		opts.MaxExamples = 40
		const exported = 64
		p, err := New(phftlGeo(), exported, opts)
		if err != nil {
			t.Fatal(err)
		}
		p.rng = rand.New(rand.NewSource(int64(seqLen)))
		mirror := rand.New(rand.NewSource(int64(seqLen)))
		fe := p.feat
		rng := rand.New(rand.NewSource(99))
		ref := make(map[uint32][][]float64)
		refEx := make([][][]float64, 0, opts.MaxExamples)
		seen := 0
		for step := 0; step < 6000; step++ {
			lpn := uint32(rng.Intn(exported))
			switch op := rng.Intn(40); {
			case op == 0:
				p.OnTrim(nand.LPN(lpn), nand.InvalidPPN, uint64(step))
				delete(ref, lpn)
				continue
			case op < 4:
				if len(ref[lpn]) == 0 {
					p.addExample(lpn, 1, false)
					continue
				}
				seen++
				want := append([][]float64(nil), ref[lpn]...)
				if len(refEx) < opts.MaxExamples {
					refEx = append(refEx, want)
				} else if j := mirror.Intn(seen); j < len(refEx) {
					refEx[j] = want
				}
				p.addExample(lpn, 1, false)
				continue
			}
			c := fe.chunkOf(nand.LPN(lpn))
			fe.chunkW[c] = uint32(rng.Intn(1 << 17))
			fe.chunkR[c] = uint32(rng.Intn(1 << 17))
			fe.reads, fe.writes = uint64(rng.Intn(1000)), uint64(rng.Intn(1000))
			life := []uint64{MaxLifetimeFeature + 5, MaxLifetimeFeature, rng.Uint64(), uint64(rng.Intn(5000))}[rng.Intn(4)]
			x := fe.Encode(nil, nand.LPN(lpn), life, rng.Intn(5000), rng.Intn(2) == 0)
			p.appendHist(lpn, x)
			if n := p.histN[lpn]; n >= 2*uint32(seqLen) {
				t.Fatalf("seqLen %d: LPN %d count %d left [0, 2*SeqLen)", seqLen, lpn, n)
			}
			h := append(ref[lpn], x)
			if len(h) > seqLen {
				h = h[len(h)-seqLen:]
			}
			ref[lpn] = h
			if got := decodeHist(p, lpn); !sameBits(got, h) {
				t.Fatalf("seqLen %d step %d: LPN %d history = %v, want %v", seqLen, step, lpn, got, h)
			}
		}
		for lpn := uint32(0); lpn < exported; lpn++ {
			if got := decodeHist(p, lpn); !sameBits(got, ref[lpn]) {
				t.Fatalf("seqLen %d: LPN %d final history = %v, want %v", seqLen, lpn, got, ref[lpn])
			}
		}
		if p.examplesSeen != seen || len(p.examples) != len(refEx) {
			t.Fatalf("seqLen %d: reservoir saw %d kept %d, want %d and %d", seqLen, p.examplesSeen, len(p.examples), seen, len(refEx))
		}
		p.decodeExamples(false, 0)
		for i, want := range refEx {
			if got := p.exampleSeq(i); !sameBits(got, want) {
				t.Fatalf("seqLen %d: example %d = %v, want %v", seqLen, i, got, want)
			}
		}
	}
}

// TestHostStateBytesCeiling bounds the host-side trainer's per-page state:
// every PHFTL slice sized by the exported page count, at cap × element size,
// must stay within 104 B per exported page. The paper's device keeps 36 B of
// ML metadata per page; the host keeps the feature history (80 B), clocks,
// window marks and outstanding predictions on top of that.
func TestHostStateBytesCeiling(t *testing.T) {
	f, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exported := f.ExportedPages()
	v := reflect.ValueOf(p).Elem()
	total := 0
	for i := 0; i < v.NumField(); i++ {
		fv, name := v.Field(i), v.Type().Field(i).Name
		if fv.Kind() != reflect.Slice || fv.Len() == 0 || fv.Len()%exported != 0 {
			continue
		}
		elem := fv.Type().Elem()
		switch elem.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("per-page slice %s holds %s: storage behind each element escapes this count", name, elem)
		}
		bytes := fv.Cap() * int(elem.Size())
		t.Logf("%-10s %6.1f B/page", name, float64(bytes)/float64(exported))
		total += bytes
	}
	perPage := float64(total) / float64(exported)
	t.Logf("host state: %.1f B per exported page (%d pages)", perPage, exported)
	if perPage > 104 {
		t.Errorf("host-side per-page state = %.1f B, want <= 104", perPage)
	}
}

// TestWindowEpochWrap starts the window epoch 20 windows short of wrapping,
// once the model trains, with stale marks of epochs 1..8 from an earlier
// cycle in windowSeen: the wrap must clear them, so the run trains exactly
// like one started at epoch 1.
func TestWindowEpochWrap(t *testing.T) {
	type outcome struct {
		wa    float64
		stats Stats
		epoch uint32
	}
	run := func(wrap bool) outcome {
		f, p, err := Build(phftlGeo(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			for i := range p.windowSeen {
				p.windowSeen[i] = uint32(i%8 + 1)
			}
			p.windowEpoch = math.MaxUint32 - 19
		}
		runHotCold(t, f, p, 1, 5)
		return outcome{f.Stats().WA(), p.Stats(), p.windowEpoch}
	}
	plain, wrapped := run(false), run(true)
	if plain.stats.Windows < 30 {
		t.Fatalf("only %d windows; the stale marks need >= 30", plain.stats.Windows)
	}
	if want := uint32(plain.stats.Windows) - 19; wrapped.epoch != want {
		t.Errorf("epoch after %d windows = %d, want %d (wrapped past 0)", plain.stats.Windows, wrapped.epoch, want)
	}
	if plain.wa != wrapped.wa || plain.stats != wrapped.stats {
		t.Errorf("epoch wrap changed the run: WA %v vs %v, stats %+v vs %+v", plain.wa, wrapped.wa, plain.stats, wrapped.stats)
	}
}
