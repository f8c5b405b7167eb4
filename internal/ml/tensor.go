// Package ml is a small, dependency-free machine-learning library built for
// PHFTL's Page Classifier: a single-layer GRU sequence model with a fully
// connected output head (§III-B of the paper), trained with backpropagation
// through time under the Adam optimizer with cross-entropy loss, plus the
// lightweight logistic-regression probes used by the classification-threshold
// adjustment algorithm (Algorithm 1) and the 8-bit post-training quantization
// applied before deploying the model to the device (§IV).
//
// Numeric features are encoded the way the paper describes: each hexadecimal
// digit of a feature value becomes one input neuron.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix (or vector when Rows==1 or Cols==1)
// holding parameters and their accumulated gradients.
type Tensor struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(rows, cols int) *Tensor {
	return &Tensor{
		Rows: rows,
		Cols: cols,
		Data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
}

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// ZeroGrad clears the accumulated gradient.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// InitXavier fills the tensor with Xavier/Glorot-uniform values using rng.
func (t *Tensor) InitXavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Clone returns a deep copy (gradients zeroed).
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// Shadow returns a gradient shadow of the tensor: Data is shared with the
// receiver (weight updates propagate automatically), Grad is private. Shadow
// tensors let several goroutines accumulate gradients from the same weights
// concurrently; the owner then reduces the shadow gradients in a fixed order
// (see ShardedTrainer).
func (t *Tensor) Shadow() *Tensor {
	return &Tensor{Rows: t.Rows, Cols: t.Cols, Data: t.Data, Grad: make([]float64, len(t.Grad))}
}

// String describes the tensor shape.
func (t *Tensor) String() string { return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols) }

// The kernels below re-slice their vector operands to the exact loop extent
// before the loops, so the compiler's prove pass drops most bounds checks.
//
// Each kernel's Go loop is its specification: every output element is one
// fixed chain of correctly rounded operations — a product, then an add onto
// that element's own accumulator, in ascending index order from the same
// starting value — and so is bit-identical on every run and every path. The
// AVX2 forms in simd_amd64.s take one licence only: they compute independent
// outputs side by side, one per vector lane, each lane keeping its output's
// chain. Reassociating a chain (split accumulators, horizontal sums), fusing
// its multiply and add into an FMA, or dropping a zero-gradient-row skip (-0
// plus a +0 product is +0, and 0·Inf is NaN) would change results and is
// allowed on neither path. The Go loops are the reference the assembly is
// tested against and the only path off amd64; their speed is not tuned.
//
// Where useSIMD is on, a kernel runs its AVX2 form when its shape passes the
// *Fits predicate below (TestProductionShapesTakeAVX2 holds every production
// shape to them). Every other shape, and every other architecture, runs the
// Go loop.

// quad reports whether a dimension is a positive multiple of 4, the only
// extents the AVX2 kernels take.
func quad(v int) bool { return v > 0 && v&3 == 0 }

// matVec2Fits reports whether matVec2AVX2 takes rows×n and rows×k operands.
func matVec2Fits(rows, n, k int) bool { return quad(rows) && quad(n) && quad(k) }

// matVecPairFits adds matVecPair's own condition: an even number of 4-row
// blocks, so that the pair splits into a top and a bottom half.
func matVecPairFits(rows, n, k int) bool { return rows%8 == 0 && matVec2Fits(rows, n, k) }

// gradFits reports whether outerAddGradAVX2 and matTVecAddAVX2 take w.
func gradFits(w *Tensor) bool { return w.Rows > 0 && quad(w.Cols) }

// base returns &s[0] after checking that s holds n elements, the bounds check
// the assembly kernels do not make.
func base(s []float64, n int) *float64 { return &s[:n][0] }

// matVec computes out = W*x for W (m×n), x (n), out (m).
func matVec(w *Tensor, x, out []float64) {
	n := w.Cols
	x = x[:n]
	out = out[:w.Rows]
	for r := range out {
		row := w.Data[r*n : r*n+n]
		sum := 0.0
		for c, v := range row {
			sum += v * x[c]
		}
		out[r] = sum
	}
}

// matVec2 computes two pairs sharing operand vectors: out1 = w1·x + u1·h and
// out2 = w2·x + u2·h, each output as matVecPair computes it. All four
// matrices are m×n over x and m×k over h.
func matVec2(w1, w2, u1, u2 *Tensor, x, h, out1, out2 []float64) {
	rows, n, k := w1.Rows, w1.Cols, u1.Cols
	if useSIMD && matVec2Fits(rows, n, k) {
		matVec2AVX2(base(w1.Data, rows*n), base(w2.Data, rows*n), base(u1.Data, rows*k), base(u2.Data, rows*k),
			base(x, n), base(h, k), base(out1, rows), base(out2, rows), rows, n, k)
		return
	}
	matVecPair(w1, u1, x, h, out1)
	matVecPair(w2, u2, x, h, out2)
}

// matVecPair computes out = w·x + u·h for w (m×n), u (m×k): per row, the
// sequential x sum, then the sequential h sum, then one add.
func matVecPair(w, u *Tensor, x, h, out []float64) {
	rows, n, k := w.Rows, w.Cols, u.Cols
	x = x[:n]
	h = h[:k]
	out = out[:rows]
	if useSIMD && matVecPairFits(rows, n, k) {
		// matVec2's kernel, over the top and bottom halves of w and u.
		half := rows / 2
		matVec2AVX2(base(w.Data, rows*n), &w.Data[half*n], base(u.Data, rows*k), &u.Data[half*k],
			&x[0], &h[0], &out[0], &out[half], half, n, k)
		return
	}
	for r := range out {
		s := 0.0
		for c, v := range w.Data[r*n : r*n+n] {
			s += v * x[c]
		}
		t := 0.0
		for c, v := range u.Data[r*k : r*k+k] {
			t += v * h[c]
		}
		out[r] = s + t
	}
}

// matTVecAdd computes out += Wᵀ*g for W (m×n), g (m), out (n) row by row:
// out[c] += W[r][c]·g[r] in ascending r, skipping rows whose g[r] is zero.
func matTVecAdd(w *Tensor, g, out []float64) {
	n := w.Cols
	g = g[:w.Rows]
	out = out[:n]
	if useSIMD && gradFits(w) {
		matTVecAddAVX2(base(w.Data, w.Rows*n), &g[0], &out[0], w.Rows, n)
		return
	}
	for r, gr := range g {
		if gr == 0 {
			continue
		}
		for c, v := range w.Data[r*n : r*n+n] {
			out[c] += v * gr
		}
	}
}

// outerAddGrad accumulates W.Grad += g ⊗ x (g is m, x is n, W is m×n),
// skipping rows whose g[r] is zero.
func outerAddGrad(w *Tensor, g, x []float64) {
	n := w.Cols
	g = g[:w.Rows]
	x = x[:n]
	if useSIMD && gradFits(w) {
		outerAddGradAVX2(base(w.Grad, w.Rows*n), &g[0], &x[0], w.Rows, n)
		return
	}
	for r, gr := range g {
		if gr == 0 {
			continue
		}
		grow := w.Grad[r*n : r*n+n]
		for c := range grow {
			grow[c] += gr * x[c]
		}
	}
}

// addGrad accumulates b.Grad += g for a bias vector.
func addGrad(b *Tensor, g []float64) {
	for i := range g {
		b.Grad[i] += g[i]
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func tanh(v float64) float64 { return math.Tanh(v) }

// vecs points each of bufs at a fresh zero vector of length n.
func vecs(n int, bufs ...*[]float64) {
	for _, b := range bufs {
		*b = make([]float64, n)
	}
}
