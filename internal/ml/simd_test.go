package ml

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
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
// *Fits predicate, and every gate vector the activation kernels run on must
// be whole blocks of four, so a width change cannot quietly fall back to
// the Go loops. The lists mirror the kernel calls in gru.go, lstm.go, mlp.go
// and model.go; matVec has no AVX2 form.
func TestProductionShapesTakeAVX2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []*Net{NewGRUNet(20, 32, 2, rng), NewLSTMNet(20, 16, 2, rng), NewMLPNet(20, 32, 2, rng)} {
		var pairs, halves [][2]*Tensor  // (w, u) of matVec2 and of matVecPair
		grads := []*Tensor{n.wout}      // outerAddGrad
		transposed := []*Tensor{n.wout} // matTVecAdd
		var gates []int                 // lengths sigmoidAdd and tanhAdd run on
		switch c := n.cell.(type) {
		case *gruCell:
			pairs = [][2]*Tensor{{c.Wz, c.Uz}, {c.Wr, c.Ur}}
			halves = [][2]*Tensor{{c.Wc, c.Uc}}
			grads = append(grads, c.Wz, c.Wr, c.Wc, c.Uz, c.Ur, c.Uc)
			transposed = append(transposed, c.Uz, c.Ur, c.Uc)
			gates = []int{len(c.scr.z), len(c.scr.r), len(c.scr.c)}
		case *lstmCell:
			pairs = [][2]*Tensor{{c.Wi, c.Ui}, {c.Wf, c.Uf}, {c.Wo, c.Uo}, {c.Wg, c.Ug}}
			grads = append(grads, c.Wi, c.Wf, c.Wo, c.Wg, c.Ui, c.Uf, c.Uo, c.Ug)
			transposed = append(transposed, c.Ui, c.Uf, c.Uo, c.Ug)
			gates = []int{len(c.scr.i), len(c.scr.f), len(c.scr.o), len(c.scr.g), len(c.scr.tc)}
		case *mlpCell:
			grads = append(grads, c.W1)
			gates = []int{len(c.h)}
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
		for _, width := range gates {
			if !quad(width) {
				t.Errorf("%T: a %d-wide activation leaves a Go-loop tail", n.cell, width)
			}
		}
	}
}

// actValue draws an activation input from a mix chosen to reach every
// branch and edge of the activation kernels: random normals, both sides of
// tanh's 0.625 and 0.5·MAXLOG, polynomial inputs that expose a fused
// multiply-add, ±0, subnormals, exp arguments near -745,
// -708.4 (k = -1022/-1023) and 709.78 (k = 1023/1024), huge values, NaN and
// ±Inf. Each draw is negated half the time, so sigmoid's exp sees both signs.
func actValue(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(16) {
	case 0:
		v = 0
	case 1:
		v = rng.Float64() * 1e-310 // subnormal
	case 2:
		v = nearby(rng, 0.625)
	case 3:
		v = nearby(rng, halfMaxLog)
	case 4:
		v = []float64{745, 708.39, 708.4, 709.1, 709.44, 709.5, 709.78, 709.8}[rng.Intn(8)] + (rng.Float64()-0.5)*0.02
	case 5:
		v = []float64{math.NaN(), math.Inf(1), 1e300, 50}[rng.Intn(4)]
	case 6:
		v = rng.NormFloat64() * 30
	case 7:
		v = tanhFusionProbes[rng.Intn(len(tanhFusionProbes))]
	default:
		v = rng.NormFloat64() * 3
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// halfMaxLog is math.tanh's bound of the ±1 branch, 0.5·MAXLOG.
const halfMaxLog = 0.5 * 8.8029691931113054295988e+01

// tanhFusionProbes are polynomial-branch inputs on which math.Tanh's result
// changes if one of its multiply-adds is fused: (P0*s+P1)*s+P2 on the first
// two, ((s+Q0)*s+Q1) on the next two, (...)*s+Q2 on the last two. Fusing
// P0*s+P1 changed no result in 10⁶ random inputs, so no probe covers it.
var tanhFusionProbes = []float64{
	-0.5459746739760847, 0.3834690175243047,
	0.5839342948169534, -0.3967752431906199,
	-0.6004950022619019, 0.5068162700653179,
}

// nearby returns x moved by up to 3 ulps either way.
func nearby(rng *rand.Rand, x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) + uint64(rng.Intn(7)) - 3)
}

// expBails reports whether archExp's normal path misses x: its k, the
// rounded x·log2(e), lies outside [-1022, 1023], or x is NaN.
func expBails(x float64) bool {
	k := math.RoundToEven(x * 1.4426950408889634073599246810018920)
	return !(k >= -1022 && k <= 1023)
}

// TestActivationKernelsMatchMath runs sigmoidAdd and tanhAdd, with and
// without a bias and with dst apart from or equal to src, against their Go
// loops on every length from 1 to 40, and requires bit-identical outputs
// (math.Float64bits). It also holds each raw kernel to its contract: it
// stores whole blocks of four and stops at the first block with a lane
// whose exp would leave archExp's normal path.
func TestActivationKernelsMatchMath(t *testing.T) {
	if !simdHost || !expSIMD {
		t.Skip("the activation kernels do not run here")
	}
	rng := rand.New(rand.NewSource(1))
	type kernel struct {
		name  string
		goAct func(v float64) float64
		add   func(dst, src, bias []float64)
		raw   func(dst, src, bias *float64, n int) int
		bails func(v float64) bool // the lane's exp leaves the normal path
		bias  bool
	}
	tanhBails := func(v float64) bool {
		if math.Abs(v) > halfMaxLog {
			return false // the ±1 branch runs exp(0)
		}
		return expBails(2 * math.Abs(v))
	}
	kernels := []kernel{
		{"sigmoidAdd", sigmoid, sigmoidAdd, sigmoidAddAVX2, func(v float64) bool { return expBails(-v) }, true},
		{"tanhAdd", tanh, tanhAdd, tanhAddAVX2, tanhBails, true},
		{"tanhAdd/nil", tanh, tanhAdd, tanhAddAVX2, tanhBails, false},
	}
	for rep := 0; rep < 20; rep++ {
		for n := 1; n <= 40; n++ {
			src, bias := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = actValue(rng)
				if rng.Intn(3) == 0 {
					bias[i] = rng.NormFloat64()
				}
			}
			if rep%2 == 0 { // mostly in range, so most blocks are stored
				for i := range src {
					if rng.Intn(8) != 0 {
						src[i] = rng.NormFloat64() * 3
					}
				}
			}
			for _, k := range kernels {
				b := bias
				if !k.bias {
					b = nil
				}
				want := make([]float64, n)
				firstBail := n
				for i, s := range src {
					v := s
					if b != nil {
						v += b[i]
					}
					want[i] = k.goAct(v)
					if k.bails(v) && firstBail == n {
						firstBail = i
					}
				}
				for _, alias := range []bool{false, true} {
					label := fmt.Sprintf("%s n=%d alias=%v", k.name, n, alias)
					dst := append([]float64(nil), src...)
					in := src
					if alias {
						in = dst
					}
					withPath(t, true, func() { k.add(dst, in, b) })
					sameBits(t, label, want, dst)

					dst = append([]float64(nil), src...)
					in = src
					if alias {
						in = dst
					}
					var bp *float64
					if b != nil {
						bp = &b[0]
					}
					done := k.raw(&dst[0], &in[0], bp, n)
					if wantDone := min(n, firstBail) &^ 3; done != wantDone {
						t.Fatalf("%s: raw kernel stored %d, want %d", label, done, wantDone)
					}
					sameBits(t, label+" raw", want[:done], dst[:done])
					sameBits(t, label+" raw tail", src[done:], dst[done:])
				}
			}
		}
	}
}

// TestActivationGateFollowsMath checks the gate against math's own switch:
// with GODEBUG=cpu.fma=off, math.Exp takes its non-FMA path, so the
// activation kernels must be off; otherwise, on an AVX2+FMA host, on.
func TestActivationGateFollowsMath(t *testing.T) {
	if !simdHost || !hasFMA() {
		t.Skip("no AVX2 and FMA on this host")
	}
	fmaOff := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off")
	if expSIMD == fmaOff {
		t.Fatalf("activation kernels on = %v with GODEBUG=%q", expSIMD, os.Getenv("GODEBUG"))
	}
}

// BenchmarkActivations times one GRU step's nonlinearities at hidden width
// 32: two 32-wide sigmoidAdd calls and one tanhAdd, on pre-activations
// drawn like a trained model's (normals, no subnormals).
func BenchmarkActivations(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, bias := make([]float64, 96), make([]float64, 96)
	for i := range src {
		src[i], bias[i] = rng.NormFloat64()*2, rng.NormFloat64()*0.1
	}
	dst := make([]float64, 96)
	for _, path := range kernelPaths {
		b.Run(path.name, func(b *testing.B) {
			withPath(b, path.simd, func() {
				if path.simd && !expSIMD {
					b.Skip("the activation kernels do not run here")
				}
				for i := 0; i < b.N; i++ {
					sigmoidAdd(dst[:32], src[:32], bias[:32])
					sigmoidAdd(dst[32:64], src[32:64], bias[32:64])
					tanhAdd(dst[64:], src[64:], bias[64:])
				}
			})
		})
	}
}
