package ml

import "math/rand"

// mlpCell is a stateless tanh layer, making Net a two-layer perceptron that
// classifies each write from its current feature vector alone — the "no
// history" end of the paper's model design space (§III-B notes prev_lifetime
// alone reaches ~70% accuracy; the sequence model adds the rest). Its "state"
// is the hidden activation of the latest input; the previous state is never
// read, so a sequence's prediction depends on its last element only.
type mlpCell struct {
	W1, B1 *Tensor

	x, h []float64 // forward's input and activation, for backward
}

// NewMLPNet builds a randomly initialized MLP classifier.
func NewMLPNet(in, hidden, classes int, rng *rand.Rand) *Net {
	return newNet(&mlpCell{W1: NewTensor(hidden, in), B1: NewTensor(1, hidden), h: make([]float64, hidden)},
		hidden, classes, rng)
}

func (m *mlpCell) params() []*Tensor { return []*Tensor{m.W1, m.B1} }

func (m *mlpCell) with(f func(*Tensor) *Tensor) cell {
	return &mlpCell{W1: f(m.W1), B1: f(m.B1), h: make([]float64, m.W1.Rows)}
}

func (m *mlpCell) stateSize() int { return m.W1.Rows }

func (m *mlpCell) step(_, x, out []float64) {
	matVec(m.W1, x, out)
	tanhAdd(out, out, m.B1.data)
}

func (m *mlpCell) reserve(int) {}

// forward of the empty sequence returns the zero head input, as the
// recurrent cells return their zero state; backward then adds no gradient.
func (m *mlpCell) forward(seq [][]float64) []float64 {
	if len(seq) == 0 {
		m.x = nil
		clear(m.h)
		return m.h
	}
	m.x = seq[len(seq)-1]
	m.step(nil, m.x, m.h)
	return m.h
}

func (m *mlpCell) backward(dh []float64) {
	if m.x == nil {
		return
	}
	for i := range dh {
		dh[i] *= 1 - m.h[i]*m.h[i] // through tanh
	}
	outerAddGradSeq(m.W1, dh, m.x, 1)
	addGrad(m.B1, dh)
}
