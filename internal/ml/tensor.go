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
// before the hot loops: the compiler's prove pass then eliminates the inner
// bounds checks, which matters because training spends most of its time here.
//
// Determinism: every output element is computed by one fixed chain of
// correctly rounded operations — a product, then an add onto that element's
// own accumulator, in ascending index order from the same starting value — and
// so is bit-identical on every run and every path. Computing several
// independent outputs at once (paired rows here, one output per vector lane
// in simd_amd64.s) keeps each chain intact and is allowed. Reassociating a
// chain (split accumulators, horizontal sums), fusing its multiply and add
// into an FMA, or dropping a zero-gradient-row skip (-0 plus a +0 product is
// +0, and 0·Inf is NaN) would change results and is not allowed.
//
// Where useSIMD is on, a kernel runs its AVX2 form when the dimensions that
// form vectorises are positive multiples of 4: the rows and both column
// counts of matVec2/matVecPair, the column count of matTVecAdd and the
// outer-product kernels. Every other shape, and every other architecture,
// runs the Go loop.

// quad reports whether a dimension is a positive multiple of 4, the only
// extents the AVX2 kernels take.
func quad(v int) bool { return v > 0 && v&3 == 0 }

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

// matVec2 computes two fused pairs sharing operand vectors: out1 = w1·x +
// u1·h and out2 = w2·x + u2·h. Each dot product keeps its own strictly
// sequential accumulation, and each output is the sum of its two dot
// products (bit-identical to a matVec followed by adding the second
// product), but rows are processed in pairs, so the inner loops carry four
// independent dependency chains — a serial FP-add chain is latency-bound, and
// independent chains are the only way to overlap it without reassociating.
// All four matrices are m×n over x and m×k over h.
func matVec2(w1, w2, u1, u2 *Tensor, x, h, out1, out2 []float64) {
	rows, n, k := w1.Rows, w1.Cols, u1.Cols
	x = x[:n]
	h = h[:k]
	out1 = out1[:rows]
	out2 = out2[:rows]
	if useSIMD && quad(rows) && quad(n) && quad(k) {
		matVec2AVX2(base(w1.Data, rows*n), base(w2.Data, rows*n), base(u1.Data, rows*k), base(u2.Data, rows*k),
			&x[0], &h[0], &out1[0], &out2[0], rows, n, k)
		return
	}
	r := 0
	for ; r+2 <= rows; r += 2 {
		w1a := w1.Data[r*n : r*n+n]
		w1b := w1.Data[(r+1)*n : (r+1)*n+n]
		w2a := w2.Data[r*n : r*n+n]
		w2b := w2.Data[(r+1)*n : (r+1)*n+n]
		var s1a, s1b, s2a, s2b float64
		for c, xc := range x {
			s1a += w1a[c] * xc
			s1b += w1b[c] * xc
			s2a += w2a[c] * xc
			s2b += w2b[c] * xc
		}
		u1a := u1.Data[r*k : r*k+k]
		u1b := u1.Data[(r+1)*k : (r+1)*k+k]
		u2a := u2.Data[r*k : r*k+k]
		u2b := u2.Data[(r+1)*k : (r+1)*k+k]
		var t1a, t1b, t2a, t2b float64
		for c, hc := range h {
			t1a += u1a[c] * hc
			t1b += u1b[c] * hc
			t2a += u2a[c] * hc
			t2b += u2b[c] * hc
		}
		out1[r] = s1a + t1a
		out1[r+1] = s1b + t1b
		out2[r] = s2a + t2a
		out2[r+1] = s2b + t2b
	}
	for ; r < rows; r++ {
		w1row := w1.Data[r*n : r*n+n]
		w2row := w2.Data[r*n : r*n+n]
		var s1, s2 float64
		for c, xc := range x {
			s1 += w1row[c] * xc
			s2 += w2row[c] * xc
		}
		u1row := u1.Data[r*k : r*k+k]
		u2row := u2.Data[r*k : r*k+k]
		var t1, t2 float64
		for c, hc := range h {
			t1 += u1row[c] * hc
			t2 += u2row[c] * hc
		}
		out1[r] = s1 + t1
		out2[r] = s2 + t2
	}
}

// matVecPair computes out = w·x + u·h, the single-pair form of matVec2;
// each dot product keeps its sequential order. Rows are paired for two
// independent accumulation chains per inner loop (see matVec2).
func matVecPair(w, u *Tensor, x, h, out []float64) {
	rows, n, k := w.Rows, w.Cols, u.Cols
	x = x[:n]
	h = h[:k]
	out = out[:rows]
	if useSIMD && quad(rows) && quad(n) && quad(k) {
		// The AVX2 kernel is matVec2's: it takes the top and bottom halves
		// of w and u as its two pairs, or, with an odd number of 4-row
		// blocks, the whole pair twice (each output is written twice with
		// the same bits).
		wd, ud := base(w.Data, rows*n), base(u.Data, rows*k)
		if rows%8 == 0 {
			half := rows / 2
			matVec2AVX2(wd, &w.Data[half*n], ud, &u.Data[half*k], &x[0], &h[0], &out[0], &out[half], half, n, k)
		} else {
			matVec2AVX2(wd, wd, ud, ud, &x[0], &h[0], &out[0], &out[0], rows, n, k)
		}
		return
	}
	r := 0
	for ; r+2 <= rows; r += 2 {
		wa := w.Data[r*n : r*n+n]
		wb := w.Data[(r+1)*n : (r+1)*n+n]
		var sa, sb float64
		for c, xc := range x {
			sa += wa[c] * xc
			sb += wb[c] * xc
		}
		ua := u.Data[r*k : r*k+k]
		ub := u.Data[(r+1)*k : (r+1)*k+k]
		var ta, tb float64
		for c, hc := range h {
			ta += ua[c] * hc
			tb += ub[c] * hc
		}
		out[r] = sa + ta
		out[r+1] = sb + tb
	}
	for ; r < rows; r++ {
		wrow := w.Data[r*n : r*n+n]
		sum := 0.0
		for c, v := range wrow {
			sum += v * x[c]
		}
		urow := u.Data[r*k : r*k+k]
		t := 0.0
		for c, v := range urow {
			t += v * h[c]
		}
		out[r] = sum + t
	}
}

// matTVecAdd computes out += Wᵀ*g for W (m×n), g (m), out (n). It iterates
// column-major with four per-column accumulators held in registers: each
// out[c] still receives its contributions in ascending row order starting
// from its prior value — the same floating-point chain as the row-major
// version, so results are bit-identical — but the four chains are
// independent, letting the CPU overlap them instead of serializing on
// store-to-load forwarding through out[c].
func matTVecAdd(w *Tensor, g, out []float64) {
	n := w.Cols
	g = g[:w.Rows]
	out = out[:n]
	if useSIMD && w.Rows > 0 && quad(n) {
		matTVecAddAVX2(base(w.Data, w.Rows*n), &g[0], &out[0], w.Rows, n)
		return
	}
	data := w.Data
	c := 0
	for ; c+8 <= n; c += 8 {
		s0, s1, s2, s3 := out[c], out[c+1], out[c+2], out[c+3]
		s4, s5, s6, s7 := out[c+4], out[c+5], out[c+6], out[c+7]
		for r, gr := range g {
			if gr == 0 {
				continue
			}
			row := data[r*n+c : r*n+c+8]
			s0 += row[0] * gr
			s1 += row[1] * gr
			s2 += row[2] * gr
			s3 += row[3] * gr
			s4 += row[4] * gr
			s5 += row[5] * gr
			s6 += row[6] * gr
			s7 += row[7] * gr
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
		out[c+4], out[c+5], out[c+6], out[c+7] = s4, s5, s6, s7
	}
	for ; c+4 <= n; c += 4 {
		s0, s1, s2, s3 := out[c], out[c+1], out[c+2], out[c+3]
		for r, gr := range g {
			if gr == 0 {
				continue
			}
			row := data[r*n+c : r*n+c+4]
			s0 += row[0] * gr
			s1 += row[1] * gr
			s2 += row[2] * gr
			s3 += row[3] * gr
		}
		out[c], out[c+1], out[c+2], out[c+3] = s0, s1, s2, s3
	}
	for ; c < n; c++ {
		s := out[c]
		for r, gr := range g {
			if gr == 0 {
				continue
			}
			s += data[r*n+c] * gr
		}
		out[c] = s
	}
}

// outerAddGrad accumulates W.Grad += g ⊗ x (g is m, x is n, W is m×n).
func outerAddGrad(w *Tensor, g, x []float64) {
	n := w.Cols
	g = g[:w.Rows]
	x = x[:n]
	if useSIMD && w.Rows > 0 && quad(n) {
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

// outerAddGrad2 fuses two outerAddGrad calls sharing x: W1.Grad += g1 ⊗ x and
// W2.Grad += g2 ⊗ x. Element updates are independent, so fusing the row loops
// is bit-identical to two separate calls (including the skip-zero-row
// behaviour, preserved per matrix).
func outerAddGrad2(w1, w2 *Tensor, g1, g2, x []float64) {
	n := w1.Cols
	g1 = g1[:w1.Rows]
	g2 = g2[:w1.Rows]
	x = x[:n]
	if useSIMD && w1.Rows > 0 && quad(n) {
		outerAddGradAVX2(base(w1.Grad, w1.Rows*n), &g1[0], &x[0], w1.Rows, n)
		outerAddGradAVX2(base(w2.Grad, w1.Rows*n), &g2[0], &x[0], w1.Rows, n)
		return
	}
	for r, gr1 := range g1 {
		gr2 := g2[r]
		grow1 := w1.Grad[r*n : r*n+n]
		grow2 := w2.Grad[r*n : r*n+n]
		switch {
		case gr1 != 0 && gr2 != 0:
			for c := range grow1 {
				grow1[c] += gr1 * x[c]
				grow2[c] += gr2 * x[c]
			}
		case gr1 != 0:
			for c := range grow1 {
				grow1[c] += gr1 * x[c]
			}
		case gr2 != 0:
			for c := range grow2 {
				grow2[c] += gr2 * x[c]
			}
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
