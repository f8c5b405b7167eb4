package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withPath runs f with the AVX2 kernels switched on or off, and restores the
// switch afterwards. Asked for the kernels on a host without them, it skips
// the test.
func withPath(t testing.TB, simd bool, f func()) {
	t.Helper()
	if simd && !simdHost {
		t.Skip("no AVX2 kernels on this host")
	}
	defer func(prev bool) { useSIMD = prev }(useSIMD)
	useSIMD = simd
	f()
}

// kernelPaths names the two kernel paths for benchmarks.
var kernelPaths = []struct {
	name string
	simd bool
}{{"go", false}, {"simd", true}}

// simdHost records whether the AVX2 kernels run here, before any test
// flips the switch.
var simdHost = useSIMD

// kernelValue draws a float from a mix chosen to catch any reordering,
// fusing or dropped skip: ordinary values, ±0, subnormals, values whose
// products underflow into the subnormal range, and large magnitudes whose
// products stay finite.
func kernelValue(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(8) {
	case 0:
		return sign * 0
	case 1:
		return sign * rng.Float64() * 1e-310 // subnormal
	case 2:
		return sign * (1 + rng.Float64()) * 1e-160
	case 3:
		return sign * (1 + rng.Float64()) * 1e150
	default:
		return sign * rng.Float64()
	}
}

func kernelVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = kernelValue(rng)
	}
	return v
}

// kernelGrad is a gradient vector in which about a third of the entries are
// +0 or -0, so both gradient kernels must skip those rows.
func kernelGrad(rng *rand.Rand, n int) []float64 {
	v := kernelVec(rng, n)
	for i := range v {
		switch rng.Intn(6) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

func kernelTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	copy(t.Data, kernelVec(rng, rows*cols))
	copy(t.Grad, kernelVec(rng, rows*cols))
	return t
}

func sameBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d: SIMD %v (%#x), Go %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelShapes are the (rows, n, k) shapes the differential test runs: the
// production GRU and head shapes, random multiples of 4 (the AVX2 kernels'
// domain, with odd numbers of 4-row blocks, on which matVecPair falls back,
// and even ones), and random shapes of which most are not multiples of 4 and
// must fall back to the Go loops.
func kernelShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{{32, 20, 32}, {2, 32, 32}, {4, 4, 4}, {12, 8, 16}, {8, 20, 4}}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, [3]int{4 + 4*rng.Intn(12), 4 + 4*rng.Intn(12), 4 + 4*rng.Intn(12)})
	}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	return shapes
}

// TestSIMDKernelsMatchGo runs every AVX2 kernel against its Go loop on the
// same inputs and requires bit-identical outputs (math.Float64bits), over
// random shapes with ±0, subnormal and large operands, gradient rows that are
// all +0 or -0, and accumulators that start at -0.
func TestSIMDKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for si, s := range kernelShapes(rng) {
		rows, n, k := s[0], s[1], s[2]
		label := fmt.Sprintf("%dx%d/%d", rows, n, k)
		x, h := kernelVec(rng, n), kernelVec(rng, k)
		w1, w2 := kernelTensor(rng, rows, n), kernelTensor(rng, rows, n)
		u1, u2 := kernelTensor(rng, rows, k), kernelTensor(rng, rows, k)
		g1 := kernelGrad(rng, rows)
		if si%5 == 4 { // a whole gradient of -0: every row skipped
			for i := range g1 {
				g1[i] = math.Copysign(0, -1)
			}
		}
		out0 := kernelVec(rng, n)
		out0[0] = math.Copysign(0, -1)

		// run calls kernel on both paths with fresh copies of the mutable
		// operands and compares what it wrote.
		run := func(name string, kernel func(a, b *Tensor, out []float64), outLen int) {
			t.Helper()
			var res [2][]float64
			for i, simd := range []bool{false, true} {
				a, b := w1.Clone(), w2.Clone()
				copy(a.Grad, w1.Grad)
				copy(b.Grad, w2.Grad)
				out := make([]float64, outLen)
				copy(out, out0)
				withPath(t, simd, func() { kernel(a, b, out) })
				res[i] = append(append(out, a.Grad...), b.Grad...)
			}
			sameBits(t, name+" "+label, res[0], res[1])
		}
		run("matVec2", func(_, _ *Tensor, out []float64) {
			matVec2(w1, w2, u1, u2, x, h, out[:rows], out[rows:])
		}, 2*rows)
		run("matVecPair", func(_, _ *Tensor, out []float64) {
			matVecPair(w1, u1, x, h, out)
		}, rows)
		run("outerAddGrad", func(a, _ *Tensor, _ []float64) {
			outerAddGrad(a, g1, x)
		}, 0)
		run("matTVecAdd", func(_, _ *Tensor, out []float64) {
			matTVecAdd(w1, g1, out)
		}, n)
	}
}

// TestProductionShapesTakeAVX2 holds the production networks — the GRU at
// 20→32, the LSTM at 20→16 and the MLP at 20→32, each under a 2-class head —
// to the AVX2 kernels' shape conditions: every matrix that the cells' step
// and backward pass and the head hand to a kernel must pass that kernel's
// *Fits predicate, so a width change cannot quietly fall back to the Go
// loops. The lists mirror the kernel calls in gru.go, lstm.go, mlp.go and
// model.go; matVec has no AVX2 form.
func TestProductionShapesTakeAVX2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []*Net{NewGRUNet(20, 32, 2, rng), NewLSTMNet(20, 16, 2, rng), NewMLPNet(20, 32, 2, rng)} {
		var pairs, halves [][2]*Tensor  // (w, u) of matVec2 and of matVecPair
		grads := []*Tensor{n.wout}      // outerAddGrad
		transposed := []*Tensor{n.wout} // matTVecAdd
		switch c := n.cell.(type) {
		case *gruCell:
			pairs = [][2]*Tensor{{c.Wz, c.Uz}, {c.Wr, c.Ur}}
			halves = [][2]*Tensor{{c.Wc, c.Uc}}
			grads = append(grads, c.Wz, c.Wr, c.Wc, c.Uz, c.Ur, c.Uc)
			transposed = append(transposed, c.Uz, c.Ur, c.Uc)
		case *lstmCell:
			pairs = [][2]*Tensor{{c.Wi, c.Ui}, {c.Wf, c.Uf}, {c.Wo, c.Uo}, {c.Wg, c.Ug}}
			grads = append(grads, c.Wi, c.Wf, c.Wo, c.Wg, c.Ui, c.Uf, c.Uo, c.Ug)
			transposed = append(transposed, c.Ui, c.Uf, c.Uo, c.Ug)
		case *mlpCell:
			grads = append(grads, c.W1)
		default:
			t.Fatalf("no kernel list for %T", c)
		}
		for _, p := range pairs {
			if !matVec2Fits(p[0].Rows, p[0].Cols, p[1].Cols) {
				t.Errorf("%T: matVec2 on %v, %v falls back to the Go loop", n.cell, p[0], p[1])
			}
		}
		for _, p := range halves {
			if !matVecPairFits(p[0].Rows, p[0].Cols, p[1].Cols) {
				t.Errorf("%T: matVecPair on %v, %v falls back to the Go loop", n.cell, p[0], p[1])
			}
		}
		for _, w := range grads {
			if !gradFits(w) {
				t.Errorf("%T: outerAddGrad on %v falls back to the Go loop", n.cell, w)
			}
		}
		for _, w := range transposed {
			if !gradFits(w) {
				t.Errorf("%T: matTVecAdd on %v falls back to the Go loop", n.cell, w)
			}
		}
	}
}
