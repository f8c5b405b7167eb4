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
//
// The weights are private because a matrix whose Rows is a multiple of 4
// also keeps them in a second, block-packed order for the forward kernels
// (blk below). Every write of the weights goes through a method that
// refreshes that copy — update, Set, InitXavier, and the copies Clone and
// Shadow make — so no weight a kernel reads can be stale.
type Tensor struct {
	Rows, Cols int
	Grad       []float64

	data []float64 // row-major
	// blk holds data in 4-row blocks, each block column-major: element
	// (r, c) at (r/4)·4·Cols + 4c + r%4, so one 256-bit load fetches column
	// c of four rows. nil unless Rows is a multiple of 4.
	blk []float64
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(rows, cols int) *Tensor {
	t := &Tensor{
		Rows: rows,
		Cols: cols,
		data: make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
	}
	if quad(rows) {
		t.blk = make([]float64, rows*cols)
	}
	return t
}

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float64) {
	t.data[r*t.Cols+c] = v
	if t.blk != nil {
		t.blk[(r>>2)*4*t.Cols+4*c+r&3] = v
	}
}

// update lets f rewrite the weights in place, then refreshes the packed copy.
func (t *Tensor) update(f func(w []float64)) {
	f(t.data)
	if t.blk == nil {
		return
	}
	n := t.Cols
	for r := 0; r < t.Rows; r++ {
		blk := t.blk[(r>>2)*4*n+r&3:]
		for c, v := range t.data[r*n : r*n+n] {
			blk[4*c] = v
		}
	}
}

// ZeroGrad clears the accumulated gradient.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// InitXavier fills the tensor with Xavier/Glorot-uniform values using rng,
// in row-major order.
func (t *Tensor) InitXavier(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	t.update(func(w []float64) {
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
	})
}

// Clone returns a deep copy (gradients zeroed).
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Rows, t.Cols)
	copy(c.data, t.data)
	copy(c.blk, t.blk)
	return c
}

// Shadow returns a gradient shadow of the tensor: the weights, packed copy
// included, are shared with the receiver (weight updates propagate
// automatically), Grad is private. Shadow tensors let several goroutines
// accumulate gradients from the same weights concurrently; the owner then
// reduces the shadow gradients in a fixed order (see ShardedTrainer).
func (t *Tensor) Shadow() *Tensor {
	return &Tensor{Rows: t.Rows, Cols: t.Cols, data: t.data, blk: t.blk, Grad: make([]float64, len(t.Grad))}
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
// AVX2 forms in simd_amd64.s take three licences, none of which touches a
// chain:
//
//   - They compute independent outputs side by side, one per vector lane,
//     each lane keeping its output's chain.
//   - They read the weights from a storage layout of their own: the forward
//     kernels read Tensor.blk, the same values as the row-major data in
//     4-row column-major blocks. Where a value sits in memory changes which
//     load fetches it, not which operations it meets, so it changes no bit —
//     provided the packed copy never lags the data, which Tensor's writers
//     guarantee.
//   - outerAddGradSeq keeps one gradient element's accumulator in a register
//     across every time step of an example instead of storing and reloading
//     it between steps. A store and a reload return the same bits, and the
//     element still meets its products one at a time in descending step
//     order, the order of the Go loop, which stores the element after every
//     step, so its chain is unchanged.
//     Elements of different gradient matrices were never in one chain, so
//     deferring a whole matrix's steps to after the recurrence reorders
//     nothing either.
//
// Reassociating a chain (split accumulators, horizontal sums), fusing its
// multiply and add into an FMA, or dropping a zero-gradient-row skip (-0
// plus a +0 product is +0, and 0·Inf is NaN) would change results and is
// allowed on neither path. The Go loops are the reference the assembly is
// tested against and the only path off amd64; their speed is not tuned.
//
// Where useSIMD is on, a kernel runs its AVX2 form when its shape passes the
// *Fits predicate below (TestProductionShapesTakeAVX2 holds every production
// shape to them). Every other shape, and every other architecture, runs the
// Go loop.
//
// The activation kernels sigmoidAdd and tanhAdd follow the same rule. Their
// Go loops, one math.Exp or math.Tanh per element, are the specification;
// each output's chain is the one math itself runs. In the AVX2 forms the exp
// repeats math.Exp's amd64 kernel (archExp, an FMA path and a non-FMA path)
// lane by lane along its FMA path: FMA exactly where archExp fuses, and
// nowhere else. tanh computes math.tanh's three branches unfused and blends
// them in its order. The kernels run only where expSIMD holds, which checks
// at start-up that they reproduce math on inputs where its two exp paths
// differ; they take whole blocks of four and leave the tail, and any block
// with a lane outside archExp's normal range, to the Go loop.

// quad reports whether a dimension is a positive multiple of 4, the only
// extents the AVX2 kernels take.
func quad(v int) bool { return v > 0 && v&3 == 0 }

// matVec2Fits reports whether matVec2AVX2 takes rows×n and rows×k operands:
// it runs two 4-row blocks of each matrix per iteration.
func matVec2Fits(rows, n, k int) bool { return rows > 0 && rows%8 == 0 && quad(n) && quad(k) }

// matVecPairFits adds matVecPair's own condition: the pair splits into a
// top and a bottom half, each of whole 8-row iterations.
func matVecPairFits(rows, n, k int) bool { return rows%16 == 0 && matVec2Fits(rows, n, k) }

// matVecFits reports whether matVec takes a rows×n matrix, which it splits
// into halves as matVecPair does.
func matVecFits(rows, n int) bool { return rows > 0 && rows%16 == 0 && quad(n) }

// gradFits reports whether outerAddGradSeqAVX2 and matTVecAddAVX2 take w.
func gradFits(w *Tensor) bool { return w.Rows > 0 && quad(w.Cols) }

// base returns &s[0] after checking that s holds n elements, the bounds check
// the assembly kernels do not make.
func base(s []float64, n int) *float64 { return &s[:n][0] }

// matVec computes out = W*x for W (m×n), x (n), out (m).
func matVec(w *Tensor, x, out []float64) {
	rows, n := w.Rows, w.Cols
	x = x[:n]
	out = out[:rows]
	if useSIMD && matVecFits(rows, n) {
		// matVecPair's kernel with no h term: the h sums stay +0, and adding
		// +0 to an x sum, which starts at +0 and so is never -0, changes no
		// bit.
		half := rows / 2
		matVec2AVX2(base(w.blk, rows*n), &w.blk[half*n], nil, nil, &x[0], nil, &out[0], &out[half], half, n, 0)
		return
	}
	for r := range out {
		row := w.data[r*n : r*n+n]
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
		matVec2AVX2(base(w1.blk, rows*n), base(w2.blk, rows*n), base(u1.blk, rows*k), base(u2.blk, rows*k),
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
		// matVec2's kernel, over the top and bottom halves of w and u: a
		// half of rows/2 rows starts rows/2·n values into the packed copy.
		half := rows / 2
		matVec2AVX2(base(w.blk, rows*n), &w.blk[half*n], base(u.blk, rows*k), &u.blk[half*k],
			&x[0], &h[0], &out[0], &out[half], half, n, k)
		return
	}
	for r := range out {
		s := 0.0
		for c, v := range w.data[r*n : r*n+n] {
			s += v * x[c]
		}
		t := 0.0
		for c, v := range u.data[r*k : r*k+k] {
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
		matTVecAddAVX2(base(w.data, w.Rows*n), &g[0], &out[0], w.Rows, n)
		return
	}
	for r, gr := range g {
		if gr == 0 {
			continue
		}
		for c, v := range w.data[r*n : r*n+n] {
			out[c] += v * gr
		}
	}
}

// outerAddGradSeq accumulates one example's steps at once: W.Grad +=
// g_k ⊗ x_k for k = steps-1 down to 0, where g holds one m-wide row per step
// (g_k is m, x_k is n, W is m×n) and x one n-wide row, skipping the rows of
// each step whose g_k[r] is zero. A single outer product is steps = 1.
func outerAddGradSeq(w *Tensor, g, x []float64, steps int) {
	m, n := w.Rows, w.Cols
	g = g[:steps*m]
	x = x[:steps*n]
	if useSIMD && gradFits(w) && steps > 0 {
		outerAddGradSeqAVX2(base(w.Grad, m*n), &g[0], &x[0], m, n, steps)
		return
	}
	for k := steps - 1; k >= 0; k-- {
		xk := x[k*n : k*n+n]
		for r, gr := range g[k*m : k*m+m] {
			if gr == 0 {
				continue
			}
			grow := w.Grad[r*n : r*n+n]
			for c := range grow {
				grow[c] += gr * xk[c]
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

// addGradSeq is addGrad over steps rows of g, k = steps-1 down to 0, the
// bias counterpart of outerAddGradSeq.
func addGradSeq(b *Tensor, g []float64, steps int) {
	m := len(b.Grad)
	for k := steps - 1; k >= 0; k-- {
		addGrad(b, g[k*m:k*m+m])
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func tanh(v float64) float64 { return math.Tanh(v) }

// sigmoidAdd sets dst[i] = sigmoid(src[i] + bias[i]). dst may alias src.
func sigmoidAdd(dst, src, bias []float64) {
	n := len(dst)
	src, bias = src[:n], bias[:n]
	i := 0
	if useSIMD && expSIMD && n >= 4 {
		i = sigmoidAddAVX2(&dst[0], &src[0], &bias[0], n)
	}
	for ; i < n; i++ {
		dst[i] = sigmoid(src[i] + bias[i])
	}
}

// tanhAdd sets dst[i] = tanh(src[i] + bias[i]), or tanh(src[i]) if bias is
// nil: adding a zero bias would turn a -0 into +0. dst may alias src.
func tanhAdd(dst, src, bias []float64) {
	n := len(dst)
	src = src[:n]
	if bias != nil {
		bias = bias[:n]
	}
	i := 0
	if useSIMD && expSIMD && n >= 4 {
		var b *float64
		if bias != nil {
			b = &bias[0]
		}
		i = tanhAddAVX2(&dst[0], &src[0], b, n)
	}
	for ; i < n; i++ {
		v := src[i]
		if bias != nil {
			v += bias[i]
		}
		dst[i] = tanh(v)
	}
}

// vecs points each of bufs at a fresh zero vector of length n.
func vecs(n int, bufs ...*[]float64) {
	for _, b := range bufs {
		*b = make([]float64, n)
	}
}
