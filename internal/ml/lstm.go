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

	// Scratch, as in gruCell: step's intermediates, forward's per-step
	// matrices and backward's ping-pong buffers.
	scr                lstmTrace
	seq                lstmSeq
	steps              int
	dhA, dhB, dcA, dcB []float64
}

// lstmTrace holds one step's gates, tanh(c) and clamp flags.
type lstmTrace struct {
	i, f, o, g, tc []float64
	clamped        []bool
}

// lstmSeq holds a sequence's per-step values, row t for step t, as gruSeq
// does.
type lstmSeq struct {
	x                  []float64 // the inputs, in wide
	h, c               []float64 // row t: step t's previous h and c (row 0 zero, never written); row t+1: its outputs
	i, f, o, g, tc     []float64
	clamped            []bool
	daI, daF, daO, daG []float64 // the gate pre-activation gradients backward computes
	cap                int
}

// grow makes room for steps steps of in-wide inputs over H hidden units.
func (s *lstmSeq) grow(steps, in, H int) {
	if s.h != nil && steps <= s.cap {
		return
	}
	*s = lstmSeq{cap: steps, x: make([]float64, steps*in), clamped: make([]bool, steps*H)}
	vecs((steps+1)*H, &s.h, &s.c)
	vecs(steps*H, &s.i, &s.f, &s.o, &s.g, &s.tc, &s.daI, &s.daF, &s.daO, &s.daG)
}

// at returns step t's trace, rows of s.
func (s *lstmSeq) at(t, H int) lstmTrace {
	return lstmTrace{
		i: row(s.i, t, H), f: row(s.f, t, H), o: row(s.o, t, H), g: row(s.g, t, H), tc: row(s.tc, t, H),
		clamped: s.clamped[t*H : t*H+H],
	}
}

func newLSTMTrace(hidden int) lstmTrace {
	t := lstmTrace{clamped: make([]bool, hidden)}
	vecs(hidden, &t.i, &t.f, &t.o, &t.g, &t.tc)
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
	l.Bf.update(func(w []float64) {
		for i := range w {
			w[i] = 1
		}
	})
	return n
}

func (l *lstmCell) init() *lstmCell {
	H := l.Wi.Rows
	l.scr = newLSTMTrace(H)
	vecs(H, &l.dhA, &l.dhB, &l.dcA, &l.dcB)
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
	sigmoidAdd(s.i, s.i, l.Bi.data)
	sigmoidAdd(s.f, s.f, l.Bf.data)
	sigmoidAdd(s.o, s.o, l.Bo.data)
	tanhAdd(s.g, s.g, l.Bg.data)
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

func (l *lstmCell) reserve(steps int) { l.seq.grow(steps, l.Wi.Cols, l.Wi.Rows) }

func (l *lstmCell) forward(seq [][]float64) []float64 {
	H, in := l.Wi.Rows, l.Wi.Cols
	a := &l.seq
	l.reserve(len(seq))
	l.steps = len(seq)
	for t, x := range seq {
		xt := row(a.x, t, in)
		copy(xt, x)
		tr := a.at(t, H)
		l.stepInto(row(a.h, t, H), row(a.c, t, H), xt, &tr, row(a.h, t+1, H), row(a.c, t+1, H))
	}
	return row(a.h, len(seq), H)
}

// backward runs the recurrence and accumulates the weight gradients over
// the whole sequence afterwards, as gruCell.backward does.
func (l *lstmCell) backward(dh []float64) {
	H, T := l.Wi.Rows, l.steps
	a := &l.seq
	// Both gradients ping-pong between two buffers; dc starts at zero in
	// dcB, so the first dcPrev is dcA.
	dc := l.dcB
	clear(dc)
	spareH, nextH := l.dhA, l.dhB
	spareC, nextC := l.dcA, l.dcB
	for t := T - 1; t >= 0; t-- {
		tr := a.at(t, H)
		cPrev := row(a.c, t, H)
		daI, daF, daO, daG := row(a.daI, t, H), row(a.daF, t, H), row(a.daO, t, H), row(a.daG, t, H)
		dhPrev, dcPrev := spareH, spareC
		for k := range dcPrev {
			// h = o · tanh(c)
			do := dh[k] * tr.tc[k]
			dcTot := dc[k] + dh[k]*tr.o[k]*(1-tr.tc[k]*tr.tc[k])
			if tr.clamped[k] {
				dcTot = 0 // gradient does not flow through the clamp
			}
			di := dcTot * tr.g[k]
			df := dcTot * cPrev[k]
			dg := dcTot * tr.i[k]
			dcPrev[k] = dcTot * tr.f[k]
			daI[k] = di * tr.i[k] * (1 - tr.i[k])
			daF[k] = df * tr.f[k] * (1 - tr.f[k])
			daO[k] = do * tr.o[k] * (1 - tr.o[k])
			daG[k] = dg * (1 - tr.g[k]*tr.g[k])
		}
		clear(dhPrev)
		matTVecAdd(l.Ui, daI, dhPrev)
		matTVecAdd(l.Uf, daF, dhPrev)
		matTVecAdd(l.Uo, daO, dhPrev)
		matTVecAdd(l.Ug, daG, dhPrev)
		dh, dc = dhPrev, dcPrev
		spareH, nextH = nextH, spareH
		spareC, nextC = nextC, spareC
	}
	// Rows 0..T-1 of a.h are the steps' previous h.
	outerAddGradSeq(l.Wi, a.daI, a.x, T)
	outerAddGradSeq(l.Wf, a.daF, a.x, T)
	outerAddGradSeq(l.Wo, a.daO, a.x, T)
	outerAddGradSeq(l.Wg, a.daG, a.x, T)
	outerAddGradSeq(l.Ui, a.daI, a.h, T)
	outerAddGradSeq(l.Uf, a.daF, a.h, T)
	outerAddGradSeq(l.Uo, a.daO, a.h, T)
	outerAddGradSeq(l.Ug, a.daG, a.h, T)
	addGradSeq(l.Bi, a.daI, T)
	addGradSeq(l.Bf, a.daF, T)
	addGradSeq(l.Bo, a.daO, T)
	addGradSeq(l.Bg, a.daG, T)
}
