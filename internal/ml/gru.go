package ml

import "math/rand"

// gruCell is the paper's recurrence (Figure 3): a single-layer gated
// recurrent unit whose hidden vector is the persisted state.
//
// Gate equations (per step, x = input, h = previous hidden state):
//
//	z = σ(Wz·x + Uz·h + bz)        update gate
//	r = σ(Wr·x + Ur·h + br)        reset gate
//	c = tanh(Wc·x + Uc·(r⊙h) + bc) candidate state
//	h' = (1−z)⊙h + z⊙c
//
// Because h' is a convex combination of h (initially 0) and c ∈ (−1,1),
// hidden states always lie in (−1,1) — the property PHFTL relies on to cache
// them as 8-bit integers (§III-C).
type gruCell struct {
	Wz, Uz, Bz *Tensor
	Wr, Ur, Br *Tensor
	Wc, Uc, Bc *Tensor

	// scr holds step's gate intermediates. forward keeps a sequence's
	// intermediates in seq, which ShardedTrainer sizes once per training
	// set from its longest sequence (reserve), and backward ping-pongs two
	// dhPrev buffers, so neither inference nor a training epoch allocates
	// per call.
	scr      gruTrace
	seq      gruSeq
	steps    int
	bwA, bwB []float64
	drh      []float64
}

// gruTrace holds one step's gate intermediates.
type gruTrace struct {
	z, r, c, rh []float64
}

// gruSeq holds a sequence's per-step values as matrices with one row per
// step, row t for step t, so that backward hands each gate's whole sequence
// to outerAddGradSeq.
type gruSeq struct {
	x             []float64 // the inputs, in wide
	h             []float64 // row t: step t's previous state (row 0 the zero state, never written); row t+1: its output
	z, r, c, rh   []float64
	daZ, daR, daC []float64 // the gate pre-activation gradients backward computes
	cap           int
}

// grow makes room for steps steps of in-wide inputs over H hidden units.
func (s *gruSeq) grow(steps, in, H int) {
	if s.h != nil && steps <= s.cap {
		return
	}
	*s = gruSeq{cap: steps, x: make([]float64, steps*in), h: make([]float64, (steps+1)*H)}
	vecs(steps*H, &s.z, &s.r, &s.c, &s.rh, &s.daZ, &s.daR, &s.daC)
}

// row returns row t of a matrix of width w.
func row(m []float64, t, w int) []float64 { return m[t*w : t*w+w] }

func newGRUTrace(hidden int) gruTrace {
	var t gruTrace
	vecs(hidden, &t.z, &t.r, &t.c, &t.rh)
	return t
}

// NewGRUNet builds a randomly initialized GRU classifier with hidden units
// and classes outputs over in-wide inputs.
func NewGRUNet(in, hidden, classes int, rng *rand.Rand) *Net {
	return newNet((&gruCell{
		Wz: NewTensor(hidden, in), Uz: NewTensor(hidden, hidden), Bz: NewTensor(1, hidden),
		Wr: NewTensor(hidden, in), Ur: NewTensor(hidden, hidden), Br: NewTensor(1, hidden),
		Wc: NewTensor(hidden, in), Uc: NewTensor(hidden, hidden), Bc: NewTensor(1, hidden),
	}).init(), hidden, classes, rng)
}

func (g *gruCell) init() *gruCell {
	H := g.Wz.Rows
	g.scr = newGRUTrace(H)
	vecs(H, &g.bwA, &g.bwB, &g.drh)
	return g
}

func (g *gruCell) params() []*Tensor {
	return []*Tensor{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wc, g.Uc, g.Bc}
}

func (g *gruCell) with(f func(*Tensor) *Tensor) cell {
	return (&gruCell{
		Wz: f(g.Wz), Uz: f(g.Uz), Bz: f(g.Bz),
		Wr: f(g.Wr), Ur: f(g.Ur), Br: f(g.Br),
		Wc: f(g.Wc), Uc: f(g.Uc), Bc: f(g.Bc),
	}).init()
}

func (g *gruCell) stateSize() int { return g.Wz.Rows }

func (g *gruCell) step(hPrev, x, hOut []float64) { g.stepInto(hPrev, x, &g.scr, hOut) }

// stepInto advances one step, keeping the gate intermediates in s. hOut may
// alias hPrev (hPrev[i] is read only before hOut[i] is written).
func (g *gruCell) stepInto(hPrev, x []float64, s *gruTrace, hOut []float64) {
	z, r, c, rh := s.z, s.r, s.c, s.rh
	matVec2(g.Wz, g.Wr, g.Uz, g.Ur, x, hPrev, z, r)
	sigmoidAdd(z, z, g.Bz.data)
	sigmoidAdd(r, r, g.Br.data)
	for i := range rh {
		rh[i] = r[i] * hPrev[i]
	}
	matVecPair(g.Wc, g.Uc, x, rh, c)
	tanhAdd(c, c, g.Bc.data)
	for i, ci := range c {
		hOut[i] = (1-z[i])*hPrev[i] + z[i]*ci
	}
}

func (g *gruCell) reserve(steps int) { g.seq.grow(steps, g.Wz.Cols, g.Wz.Rows) }

func (g *gruCell) forward(seq [][]float64) []float64 {
	H, in := g.Wz.Rows, g.Wz.Cols
	a := &g.seq
	g.reserve(len(seq))
	g.steps = len(seq)
	for t, x := range seq {
		xt := row(a.x, t, in)
		copy(xt, x)
		tr := gruTrace{z: row(a.z, t, H), r: row(a.r, t, H), c: row(a.c, t, H), rh: row(a.rh, t, H)}
		g.stepInto(row(a.h, t, H), xt, &tr, row(a.h, t+1, H))
	}
	return row(a.h, len(seq), H)
}

// backward runs the dh recurrence step by step, recording each step's gate
// gradients, then accumulates every weight gradient over the whole sequence
// at once; each gradient element meets its steps in the same descending
// order as when they were added step by step.
func (g *gruCell) backward(dh []float64) {
	H, T := g.Wz.Rows, g.steps
	a := &g.seq
	drh := g.drh
	// dhPrev buffers ping-pong: the target is always distinct from the
	// current dh (which on the first step is the caller's slice).
	spare, next := g.bwA, g.bwB
	for t := T - 1; t >= 0; t-- {
		zt, rt, ct, hPrev := row(a.z, t, H), row(a.r, t, H), row(a.c, t, H), row(a.h, t, H)
		daZ, daR, daC := row(a.daZ, t, H), row(a.daR, t, H), row(a.daC, t, H)
		dhPrev := spare
		for i := 0; i < H; i++ {
			z, c := zt[i], ct[i]
			daC[i] = dh[i] * z * (1 - c*c)
			daZ[i] = dh[i] * (c - hPrev[i]) * z * (1 - z)
			dhPrev[i] = dh[i] * (1 - z)
		}
		clear(drh)
		matTVecAdd(g.Uc, daC, drh)
		for i := 0; i < H; i++ {
			r := rt[i]
			dhPrev[i] += drh[i] * r
			daR[i] = drh[i] * hPrev[i] * r * (1 - r)
		}
		matTVecAdd(g.Uz, daZ, dhPrev)
		matTVecAdd(g.Ur, daR, dhPrev)
		dh = dhPrev
		spare, next = next, spare
	}
	// Rows 0..T-1 of a.h are the steps' previous states.
	outerAddGradSeq(g.Wc, a.daC, a.x, T)
	outerAddGradSeq(g.Uc, a.daC, a.rh, T)
	addGradSeq(g.Bc, a.daC, T)
	outerAddGradSeq(g.Wz, a.daZ, a.x, T)
	outerAddGradSeq(g.Wr, a.daR, a.x, T)
	outerAddGradSeq(g.Uz, a.daZ, a.h, T)
	outerAddGradSeq(g.Ur, a.daR, a.h, T)
	addGradSeq(g.Bz, a.daZ, T)
	addGradSeq(g.Br, a.daR, T)
}
