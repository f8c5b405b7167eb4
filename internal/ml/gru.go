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

	// scr holds step's gate intermediates; forward reuses one gruTrace
	// arena across samples (steps counts the last sequence's), and backward
	// ping-pongs two dhPrev buffers, so neither inference nor a training
	// epoch allocates per call.
	scr                gruTrace
	arena              []gruTrace
	steps              int
	zero               []float64 // all-zero initial hidden state; never written
	bwA, bwB           []float64
	daZ, daR, daC, drh []float64
}

// gruTrace holds one step's intermediates for backpropagation.
type gruTrace struct {
	x, hPrev, z, r, c, rh, h []float64
}

func newGRUTrace(hidden int) gruTrace {
	var t gruTrace
	vecs(hidden, &t.z, &t.r, &t.c, &t.rh, &t.h)
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
	vecs(H, &g.zero, &g.bwA, &g.bwB, &g.daZ, &g.daR, &g.daC, &g.drh)
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
	sigmoidAdd(z, z, g.Bz.Data)
	sigmoidAdd(r, r, g.Br.Data)
	for i := range rh {
		rh[i] = r[i] * hPrev[i]
	}
	matVecPair(g.Wc, g.Uc, x, rh, c)
	tanhAdd(c, c, g.Bc.Data)
	for i, ci := range c {
		hOut[i] = (1-z[i])*hPrev[i] + z[i]*ci
	}
}

func (g *gruCell) forward(seq [][]float64) []float64 {
	for len(g.arena) < len(seq) {
		g.arena = append(g.arena, newGRUTrace(g.Wz.Rows))
	}
	g.steps = len(seq)
	h := g.zero
	for i, x := range seq {
		tr := &g.arena[i]
		tr.x, tr.hPrev = x, h // h is the previous trace's output: stable until the next forward
		g.stepInto(h, x, tr, tr.h)
		h = tr.h
	}
	return h
}

func (g *gruCell) backward(dh []float64) {
	H := g.Wz.Rows
	daZ, daR, daC, drh := g.daZ, g.daR, g.daC, g.drh
	// dhPrev buffers ping-pong: the target is always distinct from the
	// current dh (which on the first step is the caller's slice).
	spare, next := g.bwA, g.bwB
	for t := g.steps - 1; t >= 0; t-- {
		tr := &g.arena[t]
		dhPrev := spare
		for i := 0; i < H; i++ {
			z, c := tr.z[i], tr.c[i]
			daC[i] = dh[i] * z * (1 - c*c)
			daZ[i] = dh[i] * (c - tr.hPrev[i]) * z * (1 - z)
			dhPrev[i] = dh[i] * (1 - z)
		}
		outerAddGrad(g.Wc, daC, tr.x)
		outerAddGrad(g.Uc, daC, tr.rh)
		addGrad(g.Bc, daC)
		clear(drh)
		matTVecAdd(g.Uc, daC, drh)
		for i := 0; i < H; i++ {
			r := tr.r[i]
			dhPrev[i] += drh[i] * r
			daR[i] = drh[i] * tr.hPrev[i] * r * (1 - r)
		}
		outerAddGrad(g.Wz, daZ, tr.x)
		outerAddGrad(g.Wr, daR, tr.x)
		outerAddGrad(g.Uz, daZ, tr.hPrev)
		outerAddGrad(g.Ur, daR, tr.hPrev)
		addGrad(g.Bz, daZ)
		addGrad(g.Br, daR)
		matTVecAdd(g.Uz, daZ, dhPrev)
		matTVecAdd(g.Ur, daR, dhPrev)
		dh = dhPrev
		spare, next = next, spare
	}
}
