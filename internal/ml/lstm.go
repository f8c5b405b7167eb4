package ml

import "math/rand"

// lstmCell is a single-layer long short-term memory recurrence — one of the
// architectures explored in the paper's design iterations before settling on
// the GRU (§III-B). Its persistent per-page state is the concatenation
// [h ‖ c] (both bounded in (−1,1): h by the output tanh·sigmoid product, c by
// an explicit clamp), so it can be cached in the flash metadata entry like
// the GRU hidden state but needs twice the bytes per hidden unit.
//
// Gate equations (per step):
//
//	i = σ(Wi·x + Ui·h + bi)         input gate
//	f = σ(Wf·x + Uf·h + bf)         forget gate
//	o = σ(Wo·x + Uo·h + bo)         output gate
//	g = tanh(Wg·x + Ug·h + bg)      candidate cell
//	c' = clamp(f⊙c + i⊙g, −1, 1)
//	h' = o ⊙ tanh(c')
type lstmCell struct {
	Wi, Ui, Bi *Tensor
	Wf, Uf, Bf *Tensor
	Wo, Uo, Bo *Tensor
	Wg, Ug, Bg *Tensor

	// Scratch, as in gruCell: step's intermediates, forward's trace arena
	// and backward's ping-pong buffers.
	scr                lstmTrace
	arena              []lstmTrace
	steps              int
	zero               []float64 // all-zero initial h and c; never written
	dhA, dhB, dcA, dcB []float64
	daI, daF, daO, daG []float64
}

// lstmTrace holds one step's intermediates for backpropagation.
type lstmTrace struct {
	x, hPrev, cPrev      []float64
	i, f, o, g, tc, h, c []float64
	clamped              []bool
}

func newLSTMTrace(hidden int) lstmTrace {
	t := lstmTrace{clamped: make([]bool, hidden)}
	vecs(hidden, &t.i, &t.f, &t.o, &t.g, &t.tc, &t.h, &t.c)
	return t
}

// NewLSTMNet builds a randomly initialized LSTM classifier.
func NewLSTMNet(in, hidden, classes int, rng *rand.Rand) *Net {
	l := (&lstmCell{
		Wi: NewTensor(hidden, in), Ui: NewTensor(hidden, hidden), Bi: NewTensor(1, hidden),
		Wf: NewTensor(hidden, in), Uf: NewTensor(hidden, hidden), Bf: NewTensor(1, hidden),
		Wo: NewTensor(hidden, in), Uo: NewTensor(hidden, hidden), Bo: NewTensor(1, hidden),
		Wg: NewTensor(hidden, in), Ug: NewTensor(hidden, hidden), Bg: NewTensor(1, hidden),
	}).init()
	n := newNet(l, hidden, classes, rng)
	// Forget-gate bias initialized positive, the standard LSTM trick for
	// gradient flow early in training.
	for i := range l.Bf.Data {
		l.Bf.Data[i] = 1
	}
	return n
}

func (l *lstmCell) init() *lstmCell {
	H := l.Wi.Rows
	l.scr = newLSTMTrace(H)
	vecs(H, &l.zero, &l.dhA, &l.dhB, &l.dcA, &l.dcB, &l.daI, &l.daF, &l.daO, &l.daG)
	return l
}

func (l *lstmCell) params() []*Tensor {
	return []*Tensor{
		l.Wi, l.Ui, l.Bi, l.Wf, l.Uf, l.Bf,
		l.Wo, l.Uo, l.Bo, l.Wg, l.Ug, l.Bg,
	}
}

func (l *lstmCell) with(f func(*Tensor) *Tensor) cell {
	return (&lstmCell{
		Wi: f(l.Wi), Ui: f(l.Ui), Bi: f(l.Bi),
		Wf: f(l.Wf), Uf: f(l.Uf), Bf: f(l.Bf),
		Wo: f(l.Wo), Uo: f(l.Uo), Bo: f(l.Bo),
		Wg: f(l.Wg), Ug: f(l.Ug), Bg: f(l.Bg),
	}).init()
}

// stateSize: h and c are both persisted.
func (l *lstmCell) stateSize() int { return 2 * l.Wi.Rows }

// step advances [h ‖ c] in place or into stateOut.
func (l *lstmCell) step(statePrev, x, stateOut []float64) {
	H := l.Wi.Rows
	l.stepInto(statePrev[:H], statePrev[H:2*H], x, &l.scr, stateOut[:H], stateOut[H:2*H])
}

// stepInto is the one LSTM step, for inference and training alike; s
// receives the gates, tanh(c) and the clamp flags. hPrev is fully consumed
// by the matVec2s before any output is written and cPrev[k] is read before
// cOut[k] is written, so the outputs may alias the inputs.
func (l *lstmCell) stepInto(hPrev, cPrev, x []float64, s *lstmTrace, hOut, cOut []float64) {
	matVec2(l.Wi, l.Wf, l.Ui, l.Uf, x, hPrev, s.i, s.f)
	matVec2(l.Wo, l.Wg, l.Uo, l.Ug, x, hPrev, s.o, s.g)
	sigmoidAdd(s.i, s.i, l.Bi.Data)
	sigmoidAdd(s.f, s.f, l.Bf.Data)
	sigmoidAdd(s.o, s.o, l.Bo.Data)
	tanhAdd(s.g, s.g, l.Bg.Data)
	for k, gk := range s.g {
		ck := s.f[k]*cPrev[k] + s.i[k]*gk
		// Clamp the cell into (−1,1) so the persisted state stays int8-able.
		s.clamped[k] = ck > 0.999 || ck < -0.999
		cOut[k] = max(-0.999, min(ck, 0.999))
	}
	tanhAdd(s.tc, cOut, nil)
	for k, tc := range s.tc {
		hOut[k] = s.o[k] * tc
	}
}

func (l *lstmCell) forward(seq [][]float64) []float64 {
	for len(l.arena) < len(seq) {
		l.arena = append(l.arena, newLSTMTrace(l.Wi.Rows))
	}
	l.steps = len(seq)
	h, c := l.zero, l.zero
	for t, x := range seq {
		tr := &l.arena[t]
		tr.x, tr.hPrev, tr.cPrev = x, h, c
		l.stepInto(h, c, x, tr, tr.h, tr.c)
		h, c = tr.h, tr.c
	}
	return h
}

func (l *lstmCell) backward(dh []float64) {
	daI, daF, daO, daG := l.daI, l.daF, l.daO, l.daG
	// Both gradients ping-pong between two buffers; dc starts at zero in
	// dcB, so the first dcPrev is dcA.
	dc := l.dcB
	clear(dc)
	spareH, nextH := l.dhA, l.dhB
	spareC, nextC := l.dcA, l.dcB
	for t := l.steps - 1; t >= 0; t-- {
		tr := &l.arena[t]
		dhPrev, dcPrev := spareH, spareC
		for k := range dcPrev {
			// h = o · tanh(c)
			do := dh[k] * tr.tc[k]
			dcTot := dc[k] + dh[k]*tr.o[k]*(1-tr.tc[k]*tr.tc[k])
			if tr.clamped[k] {
				dcTot = 0 // gradient does not flow through the clamp
			}
			di := dcTot * tr.g[k]
			df := dcTot * tr.cPrev[k]
			dg := dcTot * tr.i[k]
			dcPrev[k] = dcTot * tr.f[k]
			daI[k] = di * tr.i[k] * (1 - tr.i[k])
			daF[k] = df * tr.f[k] * (1 - tr.f[k])
			daO[k] = do * tr.o[k] * (1 - tr.o[k])
			daG[k] = dg * (1 - tr.g[k]*tr.g[k])
		}
		outerAddGrad(l.Wi, daI, tr.x)
		outerAddGrad(l.Wf, daF, tr.x)
		outerAddGrad(l.Wo, daO, tr.x)
		outerAddGrad(l.Wg, daG, tr.x)
		outerAddGrad(l.Ui, daI, tr.hPrev)
		outerAddGrad(l.Uf, daF, tr.hPrev)
		outerAddGrad(l.Uo, daO, tr.hPrev)
		outerAddGrad(l.Ug, daG, tr.hPrev)
		addGrad(l.Bi, daI)
		addGrad(l.Bf, daF)
		addGrad(l.Bo, daO)
		addGrad(l.Bg, daG)
		clear(dhPrev)
		matTVecAdd(l.Ui, daI, dhPrev)
		matTVecAdd(l.Uf, daF, dhPrev)
		matTVecAdd(l.Uo, daO, dhPrev)
		matTVecAdd(l.Ug, daG, dhPrev)
		dh, dc = dhPrev, dcPrev
		spareH, nextH = nextH, spareH
		spareC, nextC = nextC, spareC
	}
}
